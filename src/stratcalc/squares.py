"""Commutative squares between stratified spaces and induced class maps.

A square has a point map on top, a class map on the bottom, and the two
stratification maps on the sides. Checking a square means checking
continuity of the top map for the topologies it declares, monotonicity
of the bottom map, and pointwise commutativity over the declared domain.

Because a class map defined by g(class) = s2(f(point in the class)) is
only well defined when f is constant on fibers, the general construction
restricts the top map to a subspace containing exactly one chosen point
per class. On that subspace s1 is a bijection and the induced g commutes
by construction; whether commutativity extends to every point, and
whether g is monotone, are computed and reported rather than demanded.

The alternative construction keeps the whole domain but stratifies it by
the identity over its own specialization order, where g = s2 after f
commutes with no restriction at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import (
    InputError,
    InternalInvariantError,
    StructuralError,
    ValidationError,
)
from .spaces import FiniteSpace, PointMap, continuity_counterexample
from .stratify import Stratification, identity_stratification


@dataclass(frozen=True)
class RepresentativeSubspace:
    """One chosen point per class, carrying the subspace topology
    induced from the stratification's second topology."""

    strat: Stratification
    reps: tuple[str, ...]
    topology: FiniteSpace


def choose_representatives(
    strat: Stratification, override: tuple[str, ...] | None = None
) -> RepresentativeSubspace:
    """Canonical representatives (least point per class) unless overridden.

    An override must still pick exactly one point from every class. The
    restriction of s to the chosen points is asserted to be a bijection
    onto the classes.
    """
    classes = strat.quotient.classes
    if override is None:
        reps = tuple(c.representative for c in classes)
    else:
        reps = tuple(sorted(override))
        if len(reps) != len(classes):
            raise InputError(
                f"{len(reps)} representatives for {len(classes)} classes"
            )
        seen = {}
        for r in reps:
            cls = strat.class_of(r)
            if cls in seen:
                raise InputError(
                    f"representatives {seen[cls]} and {r} share class {cls}"
                )
            seen[cls] = r
    hit = {strat.class_of(r) for r in reps}
    if hit != {c.representative for c in classes}:
        raise InternalInvariantError("representatives do not biject onto classes")
    topology = strat.second_topology._subspace(frozenset(reps))
    return RepresentativeSubspace(strat, reps, topology)


@dataclass(frozen=True)
class StratifiedMapSquare:
    """Top point map, bottom class map, and the two stratifications.

    ``domain_points`` is where the square claims to commute; for a
    restricted square that is the representative subspace.
    """

    top: PointMap
    bottom: Mapping[str, str]
    left: Stratification
    right: Stratification
    domain_points: tuple[str, ...]
    mode: str  # "full" | "restricted" | "identity-domain"

    def __post_init__(self):
        object.__setattr__(self, "bottom", dict(self.bottom))


@dataclass(frozen=True)
class SquareCertificate:
    f_continuous: bool
    continuity_witness: tuple | None
    g_monotone: bool
    monotone_witness: tuple | None
    commutes: bool
    witnesses: tuple[tuple[str, str, str], ...]
    counterexample: tuple | None


def check_square(square: StratifiedMapSquare, strict: bool = True) -> SquareCertificate:
    """Certificate for continuity, monotonicity, and commutativity.

    With ``strict`` (the default) a commutativity failure raises a
    ValidationError carrying the witness point; otherwise it is recorded
    in the certificate.
    """
    cont_witness = continuity_counterexample(square.top)
    mono_witness = square.left.quotient.poset.monotone_counterexample(
        square.bottom, square.right.quotient.poset
    )
    witnesses = []
    counterexample = None
    for p in square.domain_points:
        via_left = square.bottom[square.left.class_of(p)]
        via_right = square.right.class_of(square.top(p))
        if via_left != via_right:
            counterexample = (p, via_left, via_right)
            break
        witnesses.append((p, via_left, via_right))
    if counterexample is not None and strict:
        raise ValidationError(
            f"square does not commute at point {counterexample[0]!r}: "
            f"{counterexample[1]} vs {counterexample[2]}",
            witness=counterexample,
        )
    return SquareCertificate(
        f_continuous=cont_witness is None,
        continuity_witness=cont_witness,
        g_monotone=mono_witness is None,
        monotone_witness=mono_witness,
        commutes=counterexample is None,
        witnesses=tuple(witnesses),
        counterexample=counterexample,
    )


@dataclass(frozen=True)
class InducedSquare:
    """An induced square plus the facts the construction can only report."""

    square: StratifiedMapSquare
    subspace: RepresentativeSubspace | None
    commutes_everywhere: bool
    full_witness: tuple | None
    g_monotone: bool


def _require_continuous(f: PointMap, s1: Stratification, s2: Stratification):
    """Refuse f unless it maps s1's space continuously into s2's."""
    if set(f.domain.points) != set(s1.space.points):
        raise InputError("map domain does not match the first stratified space")
    if set(f.codomain.points) != set(s2.space.points):
        raise InputError("map codomain does not match the second stratified space")
    witness = continuity_counterexample(PointMap(s1.space, s2.space, f.table))
    if witness is not None:
        raise StructuralError(
            f"map is not continuous: preimage of {sorted(witness[0])} "
            f"is {sorted(witness[1])}",
            witness=witness,
        )


def induce_g(
    f: PointMap,
    s1: Stratification,
    s2: Stratification,
    representatives: tuple[str, ...] | None = None,
) -> InducedSquare:
    """Class map from a point map by evaluating at one point per class.

    f must be continuous for the spaces' own topologies. The returned
    square restricts f to the representative subspace, where s1 is a
    bijection and commutativity holds by construction. Whether it extends
    to the whole space (guaranteed when f is constant on every fiber) and
    whether g is monotone are reported on the result; a non-monotone g is
    flagged, not rejected, since only commutativity is required of a
    square.
    """
    _require_continuous(f, s1, s2)
    sub = choose_representatives(s1, representatives)
    return _induced(f, s1, s2, sub.topology, "restricted", sub)


def alt_induce_g(f: PointMap, s2: Stratification) -> InducedSquare:
    """Unrestricted square over the identity stratification of the domain.

    The domain is ordered by the partial order carved out of its own
    specialization preorder, the bottom map is s2 after f on every point,
    and commutativity holds everywhere by construction.
    """
    s1 = identity_stratification(f.domain)
    _require_continuous(f, s1, s2)
    result = _induced(f, s1, s2, f.domain, "identity-domain", None)
    if not result.commutes_everywhere:
        raise InternalInvariantError("unrestricted square broken")
    return result


def _induced(
    f: PointMap, s1: Stratification, s2: Stratification, domain: FiniteSpace,
    mode: str, sub: RepresentativeSubspace | None,
) -> InducedSquare:
    """The square with g = s2 after f on the classes of ``domain``'s points,
    which meet every class of s1 once; whether it commutes on the rest of
    the space and whether g is monotone are reported."""
    g = {s1.class_of(p): s2.class_of(f(p)) for p in domain.points}
    top = PointMap(domain, s2.second_topology, {p: f(p) for p in domain.points})
    square = StratifiedMapSquare(top, g, s1, s2, domain.points, mode)
    full_witness = None
    for p in s1.space.points:
        if g[s1.class_of(p)] != s2.class_of(f(p)):
            full_witness = (p, g[s1.class_of(p)], s2.class_of(f(p)))
            break
    monotone = s1.quotient.poset.is_monotone(g, s2.quotient.poset)
    return InducedSquare(square, sub, full_witness is None, full_witness, monotone)
