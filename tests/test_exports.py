"""The package's export surface, eager and lazily loaded names alike."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import stratcalc

EXPORTS = {
    "errors": (
        "InputError", "InternalInvariantError", "NumericError", "StratcalcError",
        "StructuralError", "UnsupportedPrecisionError", "ValidationError",
    ),
    "refine": (
        "ClassMap", "RefinementPair", "coarsening_from_refined", "coarsening_surjection",
        "is_refinement", "maximal_cover", "refined_poset", "representative_section",
    ),
    "spaces": (
        "FiniteSpace", "PointMap", "Poset", "alexandroff_from_poset", "check_continuity",
        "discrete_space", "generate_topology", "identity_map", "indiscrete_space",
        "spec_zmod", "specialization_preorder",
    ),
    "squares": (
        "InducedSquare", "RepresentativeSubspace", "StratifiedMapSquare", "alt_induce_g",
        "check_square", "choose_representatives", "induce_g",
    ),
    "stratify": (
        "Cover", "HSignature", "QuotientPoset", "Stratification", "h_map",
        "identity_stratification", "preorder_from_stratification", "preorder_leq",
        "preorder_to_partial_order", "quotient_poset", "standard_stratification",
        "stratum_preimage_formula",
    ),
    "cones": (
        "CONE_APEX", "ConeCoordinate", "ConicalPoint", "cone_coord", "cone_map",
        "cone_poset", "gamma", "gamma_inv",
    ),
    "derive": (
        "ConicalMapSpec", "DerivativeReport", "Piece", "PiecewiseConeAction",
        "closed_form_parametric", "conjugate", "constant_action", "d_at_point", "derive",
        "identity_spec", "nth_derivative", "obvious_spec", "parametric_spec",
        "wrap_discrete",
    ),
    "exprfn": ("ExprFunction",),
    "forms": (
        "ComplexReport", "KForm", "LieAlgebraPresentation", "abelian", "bracket",
        "ce_oracle", "d_one_form", "de_rham_complex", "exterior_derivative", "heisenberg",
        "interior_product", "lie_derivative", "sl2", "validate_lie", "wedge",
    ),
}
NAMES = [name for names in EXPORTS.values() for name in names]
CALCULUS = ("cones", "derive", "exprfn", "forms")


def test_all_lists_every_export_once():
    assert len(NAMES) == 83
    assert sorted(stratcalc.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_home_modules_object(module):
    home = import_module(f"stratcalc.{module}")
    listed = dir(stratcalc)
    for name in EXPORTS[module]:
        assert getattr(stratcalc, name) is getattr(home, name), name
        assert name in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        stratcalc.no_such_name
    assert not hasattr(stratcalc, "__wrapped__")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from stratcalc import *", namespace)
    assert all(namespace[name] is getattr(stratcalc, name) for name in NAMES)


def test_calculus_names_load_together_on_first_read(tmp_path):
    src = str(Path(stratcalc.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        "import stratcalc\n"
        "def loaded():\n"
        "    return sorted(m[10:] for m in sys.modules if m.startswith('stratcalc.'))\n"
        "before, listed = loaded(), dir(stratcalc)\n"
        "stratcalc.ExprFunction\n"
        "print(json.dumps([before, listed, loaded(), 'sympy' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    before, listed, after, sympy = json.loads(proc.stdout)
    assert set(CALCULUS).isdisjoint(before)
    assert set(NAMES) <= set(listed)
    assert set(CALCULUS) <= set(after)
    assert not sympy
