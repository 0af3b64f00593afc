"""One JSON dialect for every input and output document.

Rationals serialize as exact "p/q" strings, floats with 17 significant
digits, point identifiers as plain strings. Every emitted document
carries a generator stamp so runs are attributable and reproducible.
The calculus modules are imported inside the loaders that need them, so
the topology commands never load them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from . import __version__
from .errors import InputError
from .refine import ClassMap
from .spaces import (
    FiniteSpace,
    PointMap,
    Poset,
    alexandroff_from_poset,
    generate_topology,
    spec_zmod,
)
from .squares import InducedSquare, SquareCertificate
from .stratify import Cover, QuotientPoset, Stratification

if TYPE_CHECKING:
    from fractions import Fraction

    from .cones import ConeCoordinate
    from .derive import ConicalMapSpec, DerivativeReport, SecondDerivativeReport
    from .forms import ComplexReport, LieAlgebraPresentation

# Longest text of a Lie bracket coefficient, and largest |e| of its
# decimal exponent; both are checked before Fraction() reads it.
COEFFICIENT_LIMIT = 64
# Largest Lie algebra dimension; checked before the n**3 structure
# constants are allocated. The worst measured document at this bound, a
# densely conjugated sl2^3 plus a line, takes about 4.5 s in `cohomology`
# on a shared 2-core host, and its dimension-11 analogue about 32 s.
MAX_LIE_DIM = 10


def fmt_float(x: float) -> float:
    # json keeps full precision for floats produced by repr; round-trip
    # through 17 significant digits pins the representation.
    return float(format(float(x), ".17g"))


def fmt_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def generator_stamp() -> dict:
    return {"tool": "stratcalc", "version": __version__}


def read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"document {path!r} not found") from None
    except ValueError as exc:  # bad JSON or UTF-8, or an int past the digit limit
        raise InputError(f"document {path!r} is not valid JSON: {exc}") from None


def write_json(path: str | None, doc: Any) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def _require(doc: dict, field: str, kind, where: str):
    if field not in doc:
        raise InputError(f"{where}: missing field {field!r}")
    value = doc[field]
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"{where}: field {field!r} has the wrong type")
    return value


def _point_sets(members, where: str, field: str) -> list[frozenset[str]]:
    if not all(isinstance(m, list) and all(isinstance(p, str) for p in m) for m in members):
        raise InputError(f"{where}: members of {field!r} must be lists of point names")
    return [frozenset(m) for m in members]


def load_space(doc: dict, where: str = "space document") -> FiniteSpace:
    """Space from exactly one topology source.

    Sources: ``opens`` (explicit family), ``basis`` (generators),
    ``poset`` (pairs [lesser, greater]; up-set topology), ``spec_zmod``
    (positive integer; discrete space on the prime divisors). With
    ``spec_zmod`` the ``points`` field is optional and checked if given.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object")
    sources = [k for k in ("opens", "basis", "poset", "spec_zmod") if k in doc]
    if len(sources) != 1:
        raise InputError(
            f"{where}: exactly one of opens/basis/poset/spec_zmod required, "
            f"got {sources or 'none'}"
        )
    source = sources[0]
    if source == "spec_zmod":
        space = spec_zmod(_require(doc, "spec_zmod", int, where))
        if "points" not in doc:
            return space
    points = _require(doc, "points", list, where)
    if not all(isinstance(p, str) for p in points):
        raise InputError(f"{where}: points must be strings")
    if source == "spec_zmod":
        if tuple(sorted(points)) != space.points:
            raise InputError(f"{where}: points disagree with the prime divisors")
        return space
    if source == "opens":
        return FiniteSpace(tuple(points), _point_sets(doc["opens"], where, "opens"))
    if source == "basis":
        return generate_topology(points, _point_sets(doc["basis"], where, "basis"))
    pairs = [(a, b) for a, b in doc["poset"]]
    _point_sets(doc["poset"], where, "poset")
    poset = Poset.generate(points, pairs)
    return alexandroff_from_poset(poset)


def dump_space(space: FiniteSpace) -> dict:
    return {
        "points": list(space.points),
        "opens": [sorted(u) for u in space.opens_sorted()],
    }


def load_cover(doc: dict, space: FiniteSpace, where: str = "cover document") -> Cover:
    members = _require(doc, "cover", list, where)
    return Cover(space, tuple(_point_sets(members, where, "cover")))


def _quotient_doc(quotient: QuotientPoset) -> dict:
    return {
        "classes": [
            {
                "id": c.representative,
                "representative": c.representative,
                "members": sorted(c.members),
                "signature": sorted(c.signature) if c.signature is not None else None,
            }
            for c in quotient.classes
        ],
        "order": {
            "full": [list(p) for p in sorted(quotient.poset.leq)],
            "hasse": [list(p) for p in quotient.poset.covers()],
        },
    }


def dump_stratification(strat: Stratification) -> dict:
    doc = {
        "generator": generator_stamp(),
        "points": list(strat.space.points),
        "cover": [sorted(m) for m in strat.cover.members] if strat.cover else None,
        "s": {p: strat.s[p] for p in strat.space.points},
        "second_topology": [sorted(u) for u in strat.second_topology.opens_sorted()],
        "continuity": {
            "up_sets": strat.certificate.up_set_count,
            "entries": [
                {
                    "up_set": list(e.up_set),
                    "preimage": sorted(e.preimage),
                    "witness_open": sorted(e.witness_open),
                }
                for e in strat.certificate.entries
            ],
        },
    }
    doc.update(_quotient_doc(strat.quotient))
    return doc


def dump_refined(quotient: QuotientPoset, witnesses: list[tuple[Cover, ClassMap]] | None) -> dict:
    doc = {"generator": generator_stamp()}
    doc.update(_quotient_doc(quotient))
    if witnesses is not None:
        doc["witnesses"] = [
            {
                "cover": [sorted(m) for m in cover.members],
                "surjection": {src: cm.mapping[src] for src in sorted(cm.mapping)},
                "monotone": cm.monotone,
            }
            for cover, cm in witnesses
        ]
    return doc


def load_map_document(doc: dict, where: str = "map document") -> dict:
    pairs = _require(doc, "f", list, where)
    table = {}
    for item in pairs:
        if not (isinstance(item, list) and len(item) == 2):
            raise InputError(f"{where}: entries of f must be [from, to] pairs")
        src, dst = item
        if not (isinstance(src, str) and isinstance(dst, str)):
            raise InputError(f"{where}: entries of f must pair two point names")
        if src in table and table[src] != dst:
            raise InputError(f"{where}: conflicting images for point {src!r}")
        table[src] = dst
    mode = doc.get("mode", "restricted")
    if mode not in ("restricted", "identity-stratification"):
        raise InputError(f"{where}: unknown mode {mode!r}")
    reps = doc.get("representatives")
    if reps is not None:
        if not (isinstance(reps, list) and all(isinstance(r, str) for r in reps)):
            raise InputError(f"{where}: representatives must be a list of point names")
        reps = tuple(reps)
    return {"table": table, "mode": mode, "representatives": reps}


def dump_square(result: InducedSquare, certificate: SquareCertificate) -> dict:
    square = result.square
    return {
        "generator": generator_stamp(),
        "mode": square.mode,
        "domain_points": list(square.domain_points),
        "g": {cls: square.bottom[cls] for cls in sorted(square.bottom)},
        "g_is_identity": all(k == v for k, v in square.bottom.items()),
        "commutes_on_domain": True,
        "commutes_everywhere": result.commutes_everywhere,
        "full_witness": list(result.full_witness) if result.full_witness else None,
        "g_monotone": result.g_monotone,
        "f_continuous": certificate.f_continuous,
        "witnesses": [list(w) for w in certificate.witnesses],
    }


def _cone_doc(c: ConeCoordinate):
    if c.is_apex:
        return "star"
    return {"t": fmt_float(c.t), "z": c.z}


def load_cone(doc, space: FiniteSpace, where: str) -> ConeCoordinate:
    from .cones import CONE_APEX, cone_coord

    if doc == "star":
        return CONE_APEX
    if not isinstance(doc, dict) or "t" not in doc:
        raise InputError(f"{where}: cone coordinate must be 'star' or have a radius t")
    t = float(doc["t"])
    if t == 0:
        return CONE_APEX
    z = doc.get("z")
    if z is None:
        raise InputError(f"{where}: positive radius needs a base point z")
    space.require_points([z], f"{where}: cone coordinate")
    return cone_coord(t, z)


def load_spec(doc: dict, where: str = "query spec") -> ConicalMapSpec:
    from .derive import Piece, PiecewiseConeAction, obvious_spec, parametric_spec
    from .exprfn import ExprFunction

    kind = _require(doc, "kind", str, where)
    space_x = load_space(_require(doc, "space_x", dict, where), f"{where}: space_x")
    space_y = (
        load_space(doc["space_y"], f"{where}: space_y")
        if "space_y" in doc
        else space_x
    )
    if kind == "obvious":
        arity = _require(doc, "arity", int, where)
        if "base_map" in doc:
            table = {src: dst for src, dst in doc["base_map"]}
        else:
            table = {p: p for p in space_x.points}
        return obvious_spec(arity, PointMap(space_x, space_y, table))
    if kind != "parametric":
        raise InputError(f"{where}: unknown kind {kind!r}")
    components = _require(doc, "k", list, where)
    k = ExprFunction(len(components), tuple(components))
    pieces_doc = _require(doc, "rho", list, where)
    pieces = []
    lo = 0.0
    for i, piece in enumerate(pieces_doc):
        hi = piece.get("until")
        table = _require(piece, "table", dict, f"{where}: rho piece {i}")
        pieces.append(Piece(lo, None if hi is None else float(hi), dict(table)))
        lo = float(hi) if hi is not None else lo
    rho = PiecewiseConeAction(tuple(pieces))
    return parametric_spec(k, rho, space_x, space_y)


def load_query(doc: dict, default_tol: float) -> dict:
    spec_doc = _require(doc, "spec", dict, "query")
    order = doc.get("order", 1)
    if type(order) is not int or order not in (1, 2):
        raise InputError(f"query: order must be the integer 1 or 2, got {json.dumps(order)}")
    spec = load_spec(spec_doc)
    point = _require(doc, "point", dict, "query")
    x = tuple(float(t) for t in _require(point, "x", list, "query point"))
    v = tuple(float(t) for t in _require(point, "v", list, "query point"))
    cone = load_cone(point.get("cone", "star"), spec.space_x, "query point")
    tol = float(doc.get("tol", default_tol))
    return {
        "spec": spec,
        "x": x,
        "v": v,
        "cone": cone,
        "tol": tol,
        "tol_explicit": "tol" in doc,
        "order": order,
    }


def dump_derivative(report: DerivativeReport) -> dict:
    value = None
    if report.value is not None:
        value = {
            "w": [fmt_float(t) for t in report.value.w],
            "fx": [fmt_float(t) for t in report.value.fx],
            "cone": _cone_doc(report.value.cone),
        }
    return {
        "generator": generator_stamp(),
        "derivable": report.derivable,
        "value": value,
        "residual": fmt_float(report.residual) if report.residual is not None else None,
        "stabilization_index": report.stabilization_index,
        "tol": fmt_float(report.tol),
        "failure": report.failure,
        "trace": [
            {
                "a": fmt_float(e.a),
                "w": [fmt_float(t) for t in e.w],
                "cone": _cone_doc(e.cone),
                "piece": e.piece,
                "target_class": e.target_class,
            }
            for e in report.trace
        ],
        "probes": [
            {
                "offset_x": [fmt_float(t) for t in p.offset_x],
                "offset_v": [fmt_float(t) for t in p.offset_v],
                "ok": p.ok,
                "detail": p.detail,
            }
            for p in report.probes
        ],
    }


def dump_second_derivative(report: SecondDerivativeReport) -> dict:
    return {
        "generator": generator_stamp(),
        "order": 2,
        "route": report.route,
        "derivable": report.derivable,
        "bilinear": (
            [fmt_float(t) for t in report.bilinear]
            if report.bilinear is not None
            else None
        ),
        "residual": fmt_float(report.residual) if report.residual is not None else None,
        "failure": report.failure,
        "base": dump_derivative(report.base.report) if report.base is not None else None,
        "trace": [
            {"b": fmt_float(b), "s": [fmt_float(t) for t in s]}
            for b, s in report.trace
        ],
    }


def _coefficient(value, where: str) -> Fraction:
    from fractions import Fraction

    from .exprfn import decimal_exponent

    text = str(value)
    if len(text) > COEFFICIENT_LIMIT or decimal_exponent(text) > COEFFICIENT_LIMIT:
        raise InputError(
            f"{where}: coefficient {text[:24]!r} is longer than {COEFFICIENT_LIMIT} "
            f"characters or has a decimal exponent beyond {COEFFICIENT_LIMIT}"
        )
    return Fraction(text)


def load_lie(doc: dict, where: str = "lie document") -> LieAlgebraPresentation:
    from .forms import LieAlgebraPresentation

    dim = _require(doc, "dim", int, where)
    if dim > MAX_LIE_DIM:
        raise InputError(f"{where}: dimension {dim} exceeds the limit of {MAX_LIE_DIM}")
    basis = tuple(doc["basis"]) if "basis" in doc else None
    brackets = []
    for item in doc.get("brackets", []):
        if not (isinstance(item, list) and len(item) == 3):
            raise InputError(f"{where}: brackets must be [i, j, coefficients]")
        i, j, coeffs = item
        brackets.append((int(i), int(j), [_coefficient(c, where) for c in coeffs]))
    return LieAlgebraPresentation.from_brackets(dim, brackets, basis)


def dump_complex(report: ComplexReport) -> dict:
    return {
        "generator": generator_stamp(),
        "dim": report.dim,
        "basis": list(report.basis),
        "matrices": [
            [[fmt_fraction(v) for v in row] for row in mat]
            for mat in report.matrices
        ],
        "ranks": list(report.ranks),
        "betti": list(report.betti),
        "euler_characteristic": report.euler_characteristic,
    }


def dot_hasse(quotient: QuotientPoset, title: str = "hasse") -> str:
    """DOT text for the transitive reduction, labeled by representatives."""
    lines = [f"digraph {json.dumps(title)} {{", "  rankdir=BT;"]
    for cls in quotient.classes:
        label = cls.representative
        lines.append(
            f"  {json.dumps(cls.representative)} [label={json.dumps(label)}];"
        )
    for a, b in quotient.poset.covers():
        lines.append(f"  {json.dumps(a)} -> {json.dumps(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
