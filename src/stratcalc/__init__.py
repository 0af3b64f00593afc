"""Stratification calculus on finite desk-scale spaces.

Finite topological spaces are stratified by open covers, refined toward
a cover-independent limit poset, mapped through commutative squares,
extended over cones where derivatives are decided numerically by a
rescaling conjugation, and fed into an exact-rational cochain complex
for presented Lie algebras of vector fields.
"""

__version__ = "0.1.0"

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import (
    InputError,
    InternalInvariantError,
    NumericError,
    StratcalcError,
    StructuralError,
    UnsupportedPrecisionError,
    ValidationError,
)
from .refine import (
    ClassMap,
    RefinementPair,
    coarsening_from_refined,
    coarsening_surjection,
    is_refinement,
    maximal_cover,
    refined_poset,
    representative_section,
)
from .spaces import (
    FiniteSpace,
    PointMap,
    Poset,
    alexandroff_from_poset,
    check_continuity,
    discrete_space,
    generate_topology,
    identity_map,
    indiscrete_space,
    spec_zmod,
    specialization_preorder,
)
from .squares import (
    InducedSquare,
    RepresentativeSubspace,
    StratifiedMapSquare,
    alt_induce_g,
    check_square,
    choose_representatives,
    induce_g,
)
from .stratify import (
    Cover,
    HSignature,
    QuotientPoset,
    Stratification,
    h_map,
    identity_stratification,
    preorder_from_stratification,
    preorder_leq,
    preorder_to_partial_order,
    quotient_poset,
    standard_stratification,
    stratum_preimage_formula,
)

# The calculus half loads on the first read of any of these names, all
# four modules at once and in this order, so the topology commands never
# compile it and it compiles before an expression brings in sympy.
_CALCULUS = {
    "cones": (
        "CONE_APEX", "ConeCoordinate", "ConicalPoint", "cone_coord", "cone_map",
        "cone_poset", "gamma", "gamma_inv",
    ),
    "derive": (
        "ConicalMapSpec", "DerivativeReport", "Piece", "PiecewiseConeAction",
        "closed_form_parametric", "conjugate", "constant_action", "d_at_point",
        "derive", "identity_spec", "nth_derivative", "obvious_spec",
        "parametric_spec", "wrap_discrete",
    ),
    "exprfn": ("ExprFunction",),
    "forms": (
        "ComplexReport", "KForm", "LieAlgebraPresentation", "abelian", "bracket",
        "ce_oracle", "d_one_form", "de_rham_complex", "exterior_derivative",
        "heisenberg", "interior_product", "lie_derivative", "sl2", "validate_lie",
        "wedge",
    ),
}

__all__ = [
    "InputError", "InternalInvariantError", "NumericError", "StratcalcError",
    "StructuralError", "UnsupportedPrecisionError", "ValidationError",
    "ClassMap", "RefinementPair", "coarsening_from_refined", "coarsening_surjection",
    "is_refinement", "maximal_cover", "refined_poset", "representative_section",
    "FiniteSpace", "PointMap", "Poset", "alexandroff_from_poset", "check_continuity",
    "discrete_space", "generate_topology", "identity_map", "indiscrete_space",
    "spec_zmod", "specialization_preorder",
    "InducedSquare", "RepresentativeSubspace", "StratifiedMapSquare", "alt_induce_g",
    "check_square", "choose_representatives", "induce_g",
    "Cover", "HSignature", "QuotientPoset", "Stratification", "h_map",
    "identity_stratification", "preorder_from_stratification", "preorder_leq",
    "preorder_to_partial_order", "quotient_poset", "standard_stratification",
    "stratum_preimage_formula",
    *(name for names in _CALCULUS.values() for name in names),
]


def __getattr__(name):
    if not any(name in names for names in _CALCULUS.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _CALCULUS.items():
        loaded = _import_module(f".{module}", __name__)
        globals().update((n, getattr(loaded, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # The first load of the submodule `derive` binds it here over the
        # function of the same name. Drop that binding; the import system
        # makes it once, so the package then returns to a plain module.
        if name == "derive" and isinstance(value, _ModuleType):
            self.__class__ = _ModuleType
            return
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
