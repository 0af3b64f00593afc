"""Numerically decided derivatives of conical maps.

A conical map acts on R^i x C(X) and is either the obvious extension of
a point map (identity on R^i, a single table on cone base points) or a
parametric family: an expression function k on R^i together with a cone
action rho that is piecewise constant in the cone radius. Its derivative
at (v, x, c) is the limit, along the step schedule a = 2^-k, of the
conjugate of the map by the rescaling homeomorphism. Derivability is a
numerical verdict with a full audit trace: the discrete data (target
cone base point and its class) must enter the radius interval containing
zero and stay there, the vector part must settle to the requested
tolerance, and the candidate limit must survive a ring of perturbed
re-derivations. For the parametric family an exact analytic expression
is available and serves as an independent cross-check; the limit loop
never consults it.

Second derivatives re-derive the first derivative, viewed as a map
between discrete spaces, by finite differences of finite differences;
precision decays quickly with order, so orders above 2 are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .cones import (
    CONE_APEX,
    ConeCoordinate,
    ConicalPoint,
    cone_coord,
    f_delta,
    gamma,
    gamma_inv,
)
from .errors import (
    InputError,
    InternalInvariantError,
    NumericError,
    StructuralError,
    UnsupportedPrecisionError,
)
from .exprfn import ExprFunction
from .spaces import FiniteSpace, PointMap

DEFAULT_TOL = 1e-9
MAX_STEPS = 41
PROBE_EPS = 1e-5
PROBE_TOL = 1e-2
DIVERGENCE_LIMIT = 1e15
SECOND_ORDER_STEPS = 13  # b = 2^0 .. 2^-12
SECOND_ORDER_TOL = 1e-3


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float | None  # None = unbounded
    table: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "table", dict(self.table))

    def contains(self, y: float) -> bool:
        return self.lo <= y and (self.hi is None or y < self.hi)


@dataclass(frozen=True)
class PiecewiseConeAction:
    """Radius-indexed family of base-point tables.

    The half-open pieces must partition [0, inf): the first starts at 0,
    each next starts where the previous ends, the last is unbounded.
    """

    pieces: tuple[Piece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise InputError("cone action needs at least one piece")
        if self.pieces[0].lo != 0:
            raise InputError("first piece must start at radius 0")
        for i, piece in enumerate(self.pieces):
            last = i == len(self.pieces) - 1
            if last != (piece.hi is None):
                raise InputError("exactly the last piece may be unbounded")
            if piece.hi is not None and not piece.lo < piece.hi:
                raise InputError(f"piece {i} has empty interval")
            if not last and self.pieces[i + 1].lo != piece.hi:
                raise InputError(f"gap between pieces {i} and {i + 1}")

    def piece_index(self, y: float) -> int:
        if y < 0:
            raise InputError(f"cone radius must be nonnegative, got {y}")
        for i, piece in enumerate(self.pieces):
            if piece.contains(y):
                return i
        raise InternalInvariantError(f"no piece contains radius {y}")

    def table_at(self, y: float) -> Mapping[str, str]:
        return self.pieces[self.piece_index(y)].table

    @property
    def limit_table(self) -> Mapping[str, str]:
        return self.pieces[0].table


def constant_action(table: Mapping[str, str]) -> PiecewiseConeAction:
    return PiecewiseConeAction((Piece(0.0, None, table),))


@dataclass(frozen=True)
class ConicalMapSpec:
    """A conical map plus the finite-space data its cone action lives on.

    ``kind`` is "obvious" (identity on R^i, one constant table) or
    "parametric" (expression function k, piecewise cone action rho).
    The cone-level class map always sends apex to apex because it is
    built by the cone functor.
    """

    kind: str
    arity: int
    space_x: FiniteSpace
    space_y: FiniteSpace
    k: ExprFunction | None
    rho: PiecewiseConeAction

    def __post_init__(self):
        if self.kind not in ("obvious", "parametric"):
            raise InputError(f"unknown spec kind {self.kind!r}")
        if self.arity < 1:
            raise InputError("arity must be at least 1")
        if self.kind == "obvious":
            if self.k is not None:
                raise InputError("obvious maps carry no expression function")
            if len(self.rho.pieces) != 1:
                raise InputError("obvious maps use a single constant table")
        else:
            if self.k is None:
                raise InputError("parametric maps need an expression function")
            if self.k.arity != self.arity or len(self.k.components) != self.arity:
                raise InputError(
                    "expression function must map R^arity to R^arity"
                )
        for i, piece in enumerate(self.rho.pieces):
            missing = set(self.space_x.points) - set(piece.table)
            if missing:
                raise InputError(f"piece {i} table undefined on {sorted(missing)}")
            bad = set(piece.table.values()) - set(self.space_y.points)
            if bad:
                raise InputError(f"piece {i} table hits unknown targets {sorted(bad)}")

    def apply_vec(self, u) -> tuple[float, ...]:
        u = tuple(float(t) for t in u)
        if len(u) != self.arity:
            raise InputError(f"expected {self.arity} coordinates, got {len(u)}")
        if self.k is None:
            return u
        return self.k.evaluate(u)

    def apply_cone(self, c: ConeCoordinate) -> ConeCoordinate:
        if c.is_apex:
            return CONE_APEX
        return cone_coord(c.t, self.rho.table_at(c.t)[c.z])

    def apply(self, p: ConicalPoint) -> ConicalPoint:
        return ConicalPoint(self.apply_vec(p.x), self.apply_cone(p.c))


def identity_spec(arity: int, space: FiniteSpace) -> ConicalMapSpec:
    table = {p: p for p in space.points}
    return ConicalMapSpec("obvious", arity, space, space, None, constant_action(table))


def obvious_spec(arity: int, base: PointMap) -> ConicalMapSpec:
    """Obvious extension of a point map: identity on R^i, base on cones."""
    return ConicalMapSpec(
        "obvious", arity, base.domain, base.codomain, None,
        constant_action(dict(base.table)),
    )


def parametric_spec(
    k: ExprFunction, rho: PiecewiseConeAction, space_x: FiniteSpace, space_y: FiniteSpace
) -> ConicalMapSpec:
    return ConicalMapSpec("parametric", k.arity, space_x, space_y, k, rho)


@dataclass(frozen=True)
class ConjugateValue:
    a: float
    w: tuple[float, ...]
    fx: tuple[float, ...]
    cone: ConeCoordinate
    piece: int | None


def conjugate(spec: ConicalMapSpec, a: float, v, x, c: ConeCoordinate) -> ConjugateValue:
    """One evaluation of the conjugated map: rescale, apply, rescale back."""
    a1, w, x1, c1 = gamma(a, v, x, c)
    extended = f_delta(spec.apply, spec.apply_vec)
    a2, u2, q = extended(a1, w, ConicalPoint(x1, c1))
    a3, v2, x2, c2 = gamma_inv(a2, u2, q.x, q.c)
    piece = None if c1.is_apex else spec.rho.piece_index(c1.t)
    return ConjugateValue(a3, v2, x2, c2, piece)


def _conjugate_steps(spec: ConicalMapSpec, v, x, fx, c: ConeCoordinate):
    """``conjugate`` at fixed (v, x, c) as a function of the step ``a``.

    ``v`` and ``x`` are float tuples and ``fx`` is k(x), computed once by
    the caller instead of once per step. The step returns the vector
    part, cone slot and piece of :class:`ConjugateValue` from the same
    float operations and checks, in the same order, as ``gamma``,
    ``f_delta`` and ``gamma_inv``.
    """
    k, rho = spec.k, spec.rho
    xmax = max((abs(xi) for xi in x), default=0.0)
    vmax = max((abs(vi) for vi in v), default=0.0)

    def step(a: float):
        w = tuple(a * vi + xi for vi, xi in zip(v, x))
        scale = max(1.0, xmax / a, vmax)
        if any(abs((wi - xi) / a - vi) > 1e-12 * scale for wi, xi, vi in zip(w, x, v)):
            raise InternalInvariantError("rescaling round trip exceeded tolerance")
        t1 = 0.0 if c.is_apex else a * c.t  # a subnormal radius underflows to 0
        if t1 == 0:
            piece, image = None, CONE_APEX
        else:
            piece = rho.piece_index(t1)
            image = cone_coord(t1 / a, rho.pieces[piece].table[c.z])
        if piece is None and not image.is_apex:
            raise StructuralError(
                "map does not send the cone point to the cone point",
                witness=ConicalPoint(x, CONE_APEX),
            )
        kw = w if k is None else k.evaluate(w)
        return tuple((ui - fi) / a for ui, fi in zip(kw, fx)), image, piece

    return step


@dataclass(frozen=True)
class TangentValue:
    """Derivative data at a point: vector part, image point, cone slot.

    The parameter slot is the restriction to 0 and is omitted."""

    w: tuple[float, ...]
    fx: tuple[float, ...]
    cone: ConeCoordinate


@dataclass(frozen=True)
class TraceEntry:
    a: float
    w: tuple[float, ...]
    cone: ConeCoordinate
    piece: int | None
    target_class: str | None


@dataclass(frozen=True)
class ProbeResult:
    offset_x: tuple[float, ...]
    offset_v: tuple[float, ...]
    ok: bool
    detail: str


@dataclass(frozen=True)
class DerivativeReport:
    derivable: bool
    value: TangentValue | None
    trace: tuple[TraceEntry, ...]
    stabilization_index: int | None
    residual: float | None
    probes: tuple[ProbeResult, ...]
    failure: str | None
    tol: float


def _sup_diff(u, w) -> float:
    return max((abs(a - b) for a, b in zip(u, w)), default=0.0)


def _extrapolate_to_zero(points) -> tuple[float, ...]:
    """Value at 0 of the interpolating polynomial through (a, w) points."""
    weights = []
    for ai, _ in points:
        li = 1.0
        for aj, _ in points:
            if aj != ai:
                li *= (0.0 - aj) / (ai - aj)
        weights.append(li)
    dim = len(points[0][1])
    return tuple(
        sum(wt * w[comp] for wt, (_, w) in zip(weights, points))
        for comp in range(dim)
    )


def _probe_offsets(arity: int, count: int, eps: float):
    """Deterministic ring of perturbations of (x, v), one coordinate or a
    matched pair at a time."""
    offsets = []
    zero = (0.0,) * arity

    def unit(coord, sign):
        return tuple(sign * eps if i == coord else 0.0 for i in range(arity))

    for coord in range(arity):
        for sign in (1.0, -1.0):
            offsets.append((unit(coord, sign), zero))
            offsets.append((zero, unit(coord, sign)))
    for coord in range(arity):
        for sx in (1.0, -1.0):
            for sv in (1.0, -1.0):
                offsets.append((unit(coord, sx), unit(coord, sv)))
    return offsets[:count]


def derive(
    spec: ConicalMapSpec,
    v,
    x,
    c: ConeCoordinate,
    tol: float = DEFAULT_TOL,
    probe_count: int = 8,
) -> DerivativeReport:
    """Decide derivability at (v, x, c) and report the evidence.

    The verdict is derivable when (a) the cone action settles on the
    piece containing radius 0 within ``MAX_STEPS`` steps, (b) the vector
    part of the conjugate trace is Cauchy with final successive difference
    below ``tol``, and (c) re-derivations at ``probe_count`` inputs moved
    by ``PROBE_EPS`` stay within ``PROBE_TOL`` of the extrapolated limit
    with the same discrete data. Evaluation failures at the queried point
    raise; evaluation failures at probe points downgrade the verdict, since
    the extension cannot be continuous where the map stops being defined.
    """
    if tol <= 0:
        raise InputError("tolerance must be positive")
    v = tuple(float(t) for t in v)
    x = tuple(float(t) for t in x)
    if len(v) != spec.arity or len(x) != spec.arity:
        raise InputError(f"point and direction must have {spec.arity} coordinates")
    if not c.is_apex:
        spec.space_x.require_points([c.z], "cone coordinate")

    fx = spec.apply_vec(x)
    conjugate_at = _conjugate_steps(spec, v, x, fx, c)
    trace: list[TraceEntry] = []
    stabilization: int | None = None
    converged = False
    failure: str | None = None
    prev_w: tuple[float, ...] | None = None
    for step in range(MAX_STEPS):
        a = 2.0 ** (-step)
        w, cone, piece = conjugate_at(a)
        trace.append(TraceEntry(a, w, cone, piece, cone.z))
        if any(not math.isfinite(t) for t in w):
            failure = f"non-finite vector part at step {step}"
            break
        if max(abs(t) for t in w) > DIVERGENCE_LIMIT:
            failure = f"vector part diverges at step {step}"
            break
        settled = piece is None or piece == 0
        if settled and stabilization is None:
            stabilization = step
        if not settled and stabilization is not None:
            raise InternalInvariantError("cone action left the limit piece")
        if (
            step >= 2
            and stabilization is not None
            and prev_w is not None
            and _sup_diff(w, prev_w) < tol
        ):
            converged = True
            break
        prev_w = w

    if not converged and failure is None:
        if stabilization is None:
            failure = "cone action never settled on the limit piece"
        else:
            failure = "vector part did not reach the tolerance within the budget"

    value = None
    residual = None
    if converged:
        tail = [(e.a, e.w) for e in trace[-3:]]
        limit = _extrapolate_to_zero(tail)
        last_diff = _sup_diff(trace[-1].w, trace[-2].w)
        residual = max(_sup_diff(limit, trace[-1].w), last_diff)
        cone_limit = (
            CONE_APEX if c.is_apex else cone_coord(c.t, spec.rho.limit_table[c.z])
        )
        value = TangentValue(limit, fx, cone_limit)

    probes: list[ProbeResult] = []
    if converged and probe_count > 0:
        for off_x, off_v in _probe_offsets(spec.arity, probe_count, PROBE_EPS):
            px = tuple(a + b for a, b in zip(x, off_x))
            pv = tuple(a + b for a, b in zip(v, off_v))
            try:
                sub = derive(spec, pv, px, c, tol=tol, probe_count=0)
            except NumericError as exc:
                probes.append(
                    ProbeResult(off_x, off_v, False, f"evaluation failed: {exc}")
                )
                continue
            if not sub.derivable:
                probes.append(
                    ProbeResult(off_x, off_v, False, f"not derivable: {sub.failure}")
                )
                continue
            if (sub.value.cone.is_apex != value.cone.is_apex) or (
                sub.value.cone.z != value.cone.z
            ):
                probes.append(
                    ProbeResult(off_x, off_v, False, "discrete limit changed")
                )
                continue
            gap = max(
                _sup_diff(sub.value.w, value.w),
                _sup_diff(sub.value.fx, value.fx),
            )
            if gap > PROBE_TOL:
                probes.append(
                    ProbeResult(off_x, off_v, False, f"value jumped by {gap:.3e}")
                )
                continue
            probes.append(ProbeResult(off_x, off_v, True, "ok"))
        bad = [p for p in probes if not p.ok]
        if bad:
            converged = False
            failure = (
                f"{len(bad)} of {len(probes)} continuity probes failed; "
                f"first: {bad[0].detail}"
            )

    return DerivativeReport(
        derivable=converged,
        value=value,
        trace=tuple(trace),
        stabilization_index=stabilization,
        residual=residual,
        probes=tuple(probes),
        failure=failure,
        tol=tol,
    )


def closed_form_parametric(spec: ConicalMapSpec, v, x, c: ConeCoordinate) -> TangentValue:
    """Analytic derivative of a parametric family at (v, x, c).

    Vector part is the symbolic Jacobian of k applied to v, the image
    point is k(x), and the cone slot keeps the incoming radius with the
    base point pushed through the table of the radius-0 piece. This is
    the independent cross-check for the numeric limit.
    """
    if spec.kind != "parametric":
        raise InputError("closed form applies to parametric maps only")
    v = tuple(float(t) for t in v)
    x = tuple(float(t) for t in x)
    if not c.is_apex:
        spec.space_x.require_points([c.z], "cone coordinate")
    w = spec.k.jacobian_apply(x, v)
    fx = spec.k.evaluate(x)
    cone = CONE_APEX if c.is_apex else cone_coord(c.t, spec.rho.limit_table[c.z])
    return TangentValue(w, fx, cone)


class DerivativeAtPoint:
    """The fiberwise map (v, c) -> (vector part, cone part) at fixed x."""

    def __init__(self, spec: ConicalMapSpec, x, tol: float = DEFAULT_TOL):
        self.spec = spec
        self.x = tuple(float(t) for t in x)
        self.tol = tol
        probe = derive(spec, (0.0,) * spec.arity, self.x, CONE_APEX, tol=tol)
        if not probe.derivable:
            raise StructuralError(
                f"map is not derivable at {self.x}: {probe.failure}"
            )
        self.fx = probe.value.fx

    def __call__(self, v, c: ConeCoordinate):
        report = derive(self.spec, v, self.x, c, tol=self.tol)
        if not report.derivable:
            raise StructuralError(
                f"map is not derivable at {self.x} in direction {tuple(v)}: "
                f"{report.failure}"
            )
        return report.value.w, report.value.cone


def d_at_point(spec: ConicalMapSpec, x, tol: float = DEFAULT_TOL) -> DerivativeAtPoint:
    return DerivativeAtPoint(spec, x, tol)


@dataclass(frozen=True)
class DiscreteSchemeMap:
    """A derivative re-labeled as a map of discrete spaces.

    Every singleton is open, hence an affine piece, so the derivative's
    domain and codomain qualify as desk-scale scheme models and the
    derivative can be derived again. The wrapper adds no numeric content.
    """

    report: DerivativeReport

    def __post_init__(self):
        if not self.report.derivable:
            raise InputError("only derivable reports can be wrapped")

    @property
    def value(self) -> TangentValue:
        return self.report.value

    def unwrap(self) -> DerivativeReport:
        return self.report


def wrap_discrete(report: DerivativeReport) -> DiscreteSchemeMap:
    return DiscreteSchemeMap(report)


@dataclass(frozen=True)
class SecondDerivativeReport:
    """Directional second derivative computed through the discrete wrap.

    ``route`` records that this is the scheme-map iteration, which is not
    interchangeable with iterating stratified-map derivatives.
    """

    derivable: bool
    bilinear: tuple[float, ...] | None
    base: DiscreteSchemeMap | None
    trace: tuple[tuple[float, tuple[float, ...]], ...]
    residual: float | None
    failure: str | None
    route: str = "scheme-map"


def nth_derivative(
    spec: ConicalMapSpec,
    n: int,
    v,
    x,
    c: ConeCoordinate,
    tol: float | None = None,
):
    """Order-1 derivative, or order-2 via re-derivation of the wrapped
    first derivative. Orders above 2 are refused: each finite-difference
    level costs about half the significant digits, so verdicts beyond
    the second order would not be honest at double precision.
    """
    if n < 1:
        raise InputError("derivative order must be at least 1")
    if n == 1:
        return derive(spec, v, x, c, tol=DEFAULT_TOL if tol is None else tol)
    if n > 2:
        raise UnsupportedPrecisionError(
            f"order {n} exceeds the supported maximum of 2"
        )
    outer_tol = SECOND_ORDER_TOL if tol is None else tol
    inner_tol = 1e-10
    v = tuple(float(t) for t in v)
    x = tuple(float(t) for t in x)

    base_report = derive(spec, v, x, c, tol=inner_tol, probe_count=0)
    if not base_report.derivable:
        return SecondDerivativeReport(
            False, None, None, (), None,
            f"first derivative not derivable: {base_report.failure}",
        )
    base = wrap_discrete(base_report)
    w0 = base.value.w

    trace: list[tuple[float, tuple[float, ...]]] = []
    prev: tuple[float, ...] | None = None
    converged = False
    failure = None
    for step in range(SECOND_ORDER_STEPS):
        b = 2.0 ** (-step)
        shifted = tuple(xi + b * vi for xi, vi in zip(x, v))
        rep = derive(spec, v, shifted, c, tol=inner_tol, probe_count=0)
        if not rep.derivable:
            failure = f"first derivative not derivable at shift {b}: {rep.failure}"
            break
        s = tuple((wi - w0i) / b for wi, w0i in zip(rep.value.w, w0))
        trace.append((b, s))
        if any(not math.isfinite(t) for t in s) or max(abs(t) for t in s) > DIVERGENCE_LIMIT:
            failure = f"second differences diverge at step {step}"
            break
        if step >= 2 and prev is not None and _sup_diff(s, prev) < outer_tol:
            converged = True
            break
        prev = s

    if not converged:
        return SecondDerivativeReport(
            False, None, base, tuple(trace), None,
            failure or "second differences did not reach the tolerance",
        )
    limit = _extrapolate_to_zero(trace[-3:])
    last_diff = _sup_diff(trace[-1][1], trace[-2][1])
    residual = max(_sup_diff(limit, trace[-1][1]), last_diff)
    return SecondDerivativeReport(
        True, limit, base, tuple(trace), residual, None,
    )
