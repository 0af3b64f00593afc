"""Cones over finite spaces and posets, and the rescaling conjugation.

The cone over a space X is the quotient of [0, inf) x X collapsing
{0} x X to a single point. That point is represented by a tag, never by
a zero radius with a remembered base point, so the quotient equality is
exact by construction and no tolerance enters at radius zero. The cone
over a poset adjoins a new bottom element below everything.

The rescaling map

    (a, v, x, c) -> (a, a v + x, x, scale(a, c))

for a > 0 is the change of coordinates whose conjugates of a map are
evaluated along a -> 0 to decide derivatives; it is inverted exactly by
(a, w, x, c) -> (a, (w - x)/a, x, scale(1/a, c)). The step schedules used
downstream are powers of two, for which scaling the cone radius up and
back down is exact in binary floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import InputError, InternalInvariantError, StructuralError
from .spaces import Poset

CONE_POINT = "*"

Vector = tuple[float, ...]


@dataclass(frozen=True)
class ConeCoordinate:
    """A point [t, z] of a cone, with the apex stored as a tag.

    Use :func:`cone_coord`; radius 0 always normalizes to the apex, so
    two coordinates are equal exactly when the quotient says they are.
    """

    t: float
    z: str | None

    @property
    def is_apex(self) -> bool:
        return self.z is None

    def __repr__(self):
        if self.is_apex:
            return "ConeCoordinate(*)"
        return f"ConeCoordinate({self.t!r}, {self.z!r})"


CONE_APEX = ConeCoordinate(0.0, None)


def cone_coord(t: float, z: str | None) -> ConeCoordinate:
    if t < 0:
        raise InputError(f"cone radius must be nonnegative, got {t}")
    if t == 0:
        return CONE_APEX
    if z is None:
        raise InputError("positive cone radius needs a base point")
    return ConeCoordinate(float(t), z)


@dataclass(frozen=True)
class ConicalPoint:
    """A point (x, c) of R^i x C(X)."""

    x: Vector
    c: ConeCoordinate

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))


@dataclass(frozen=True)
class PosetCone:
    """A poset with a fresh bottom element adjoined below everything."""

    base: Poset
    poset: Poset

    @property
    def apex(self) -> str:
        return CONE_POINT


def cone_poset(base: Poset) -> PosetCone:
    if CONE_POINT in base.elements:
        raise InputError(f"poset already contains the reserved element {CONE_POINT!r}")
    elements = (CONE_POINT,) + base.elements
    cone = Poset(elements, base.leq | {(CONE_POINT, e) for e in elements})
    mins = [e for e in cone.elements if all(cone.le(e, o) for o in cone.elements)]
    if mins != [CONE_POINT]:
        raise InternalInvariantError("cone apex is not the unique minimum")
    return PosetCone(base, cone)


@dataclass(frozen=True)
class ConePosetMap:
    """A monotone map of cones sending apex to apex."""

    source: PosetCone
    target: PosetCone
    mapping: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))

    def __call__(self, e: str) -> str:
        return self.mapping[e]


def cone_map(source: Poset, target: Poset, g: Mapping[str, str]) -> ConePosetMap:
    """Extend a monotone base map over the cones, apex to apex."""
    missing = set(source.elements) - set(g)
    if missing:
        raise InputError(f"map undefined on {sorted(missing)}")
    bad = source.monotone_counterexample(g, target)
    if bad is not None:
        raise InputError(f"base map is not monotone at {bad}")
    sc, tc = cone_poset(source), cone_poset(target)
    mapping = {CONE_POINT: CONE_POINT}
    mapping.update({e: g[e] for e in source.elements})
    if not sc.poset.is_monotone(mapping, tc.poset):
        raise InternalInvariantError("cone extension lost monotonicity")
    return ConePosetMap(sc, tc, mapping)


def _as_vector(v) -> Vector:
    return tuple(float(t) for t in v)


def gamma(a: float, v, x, c: ConeCoordinate) -> tuple[float, Vector, Vector, ConeCoordinate]:
    """Rescaling (a, v, x, c) -> (a, a v + x, x, c scaled by a), a > 0."""
    if a <= 0:
        raise InputError(f"rescaling needs a > 0, got {a}")
    v, x = _as_vector(v), _as_vector(x)
    if len(v) != len(x):
        raise InputError("tangent and base vectors must share a dimension")
    w = tuple(a * vi + xi for vi, xi in zip(v, x))
    c2 = CONE_APEX if c.is_apex else cone_coord(a * c.t, c.z)
    # Defensive round-trip check; the bound is scale-aware and cannot
    # trip for IEEE doubles unless the arithmetic is genuinely broken.
    back = tuple((wi - xi) / a for wi, xi in zip(w, x))
    scale = max(1.0, max((abs(xi) for xi in x), default=0.0) / a,
                max((abs(vi) for vi in v), default=0.0))
    if any(abs(bi - vi) > 1e-12 * scale for bi, vi in zip(back, v)):
        raise InternalInvariantError("rescaling round trip exceeded tolerance")
    return (a, w, x, c2)


def gamma_inv(a: float, w, x, c: ConeCoordinate) -> tuple[float, Vector, Vector, ConeCoordinate]:
    """Inverse rescaling (a, w, x, c) -> (a, (w - x)/a, x, c scaled by 1/a)."""
    if a <= 0:
        raise InputError(f"rescaling needs a > 0, got {a}")
    w, x = _as_vector(w), _as_vector(x)
    if len(w) != len(x):
        raise InputError("vectors must share a dimension")
    v = tuple((wi - xi) / a for wi, xi in zip(w, x))
    c2 = CONE_APEX if c.is_apex else cone_coord(c.t / a, c.z)
    return (a, v, x, c2)


def gamma_round_trip_error(a: float, v, x, c: ConeCoordinate) -> float:
    """Sup-norm error of applying the rescaling and then its inverse.

    A subnormal radius can underflow to 0 when scaled, which collapses
    the coordinate to the apex; by the quotient rule that is a loss of
    exactly the original radius, so it counts as that much error rather
    than as a structural failure.
    """
    _, w, _, c1 = gamma(a, v, x, c)
    _, v2, _, c2 = gamma_inv(a, w, x, c1)
    err = max((abs(b - float(o)) for b, o in zip(v2, v)), default=0.0)
    if c.is_apex:
        if not c2.is_apex:
            raise InternalInvariantError("round trip moved the cone apex")
    elif c2.is_apex:
        err = max(err, c.t)  # radius lost to underflow
    else:
        err = max(err, abs(c2.t - c.t))
        if c2.z != c.z:
            raise InternalInvariantError("round trip moved the cone base point")
    return err


def f_delta(
    f: Callable[[ConicalPoint], ConicalPoint],
    f_vec: Callable[[Vector], Vector],
) -> Callable[[float, Vector, ConicalPoint], tuple[float, Vector, ConicalPoint]]:
    """Product extension id x f_vec x f over (0, inf) x R^i x (R^i x C(X)).

    ``f_vec`` is the restriction of the map to the apex stratum. Apex
    preservation is enforced at evaluation: an input at the apex whose
    image leaves the apex is a structural error.
    """

    def apply(a: float, u, p: ConicalPoint):
        if a <= 0:
            raise InputError(f"extension needs a > 0, got {a}")
        q = f(p)
        if p.c.is_apex and not q.c.is_apex:
            raise StructuralError(
                "map does not send the cone point to the cone point",
                witness=p,
            )
        return (a, _as_vector(f_vec(_as_vector(u))), q)

    return apply
