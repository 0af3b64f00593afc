"""Cover-induced stratifications of finite spaces.

An open cover assigns each point the set of cover-member indices that
contain it (its signature). Signature inclusion is a preorder on points;
its quotient by signature equality is a poset. As y lies in U_x exactly
when sig(x) is contained in sig(y), that poset is the T0 quotient of the
topology the cover generates, and it is built from the U_x masks, with
the signatures as labels. The quotient map, together with that topology,
is verified (never assumed) to be a continuous surjection onto the
quotient carrying the up-set topology. Continuity is decided on the
minimal opens, as for every point map; the certificate lists each up-set
with its preimage, and the fiber formula

    (intersection of the members in the signature)
        minus (union of the members outside it)

is checked against the actual fiber on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InputError, InternalInvariantError, StructuralError
from .spaces import (
    FiniteSpace,
    PointMap,
    Poset,
    _generated_minimal,
    alexandroff_from_poset,
    continuity_counterexample,
    generate_topology,
    sorted_sets,
)

MAX_CLASSES = 20


@dataclass(frozen=True)
class Cover:
    """An ordered list of nonempty open sets whose union is the space.

    Openness is judged in the space's own (first) topology; the topology
    the cover generates is a separate, usually coarser, second topology.
    """

    space: FiniteSpace
    members: tuple[frozenset[str], ...]

    def __post_init__(self):
        members = tuple(frozenset(m) for m in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise InputError("cover needs at least one member")
        for i, m in enumerate(members):
            if not m:
                raise InputError(f"cover member {i} is empty")
            if m not in self.space.opens:
                raise InputError(
                    f"cover member {i} = {sorted(m)} is not open in the space"
                )
        union = frozenset().union(*members)
        if union != self.space.full:
            missing = self.space.full - union
            raise InputError(f"cover misses points {sorted(missing)}")

    @property
    def max_signature_size(self) -> int:
        """sup over points of the signature size; always finite here."""
        return max(
            sum(1 for m in self.members if x in m) for x in self.space.points
        )


@dataclass(frozen=True)
class HSignature:
    """Per-point set of cover-member indices containing the point."""

    cover: Cover
    by_point: Mapping[str, frozenset[int]]

    def __post_init__(self):
        object.__setattr__(self, "by_point", dict(self.by_point))

    def __getitem__(self, x: str) -> frozenset[int]:
        if x not in self.by_point:
            raise InputError(f"unknown point {x!r}")
        return self.by_point[x]

    @property
    def points(self) -> tuple[str, ...]:
        return self.cover.space.points

    def occurring_subsets(self) -> list[frozenset[int]]:
        """The index subsets that occur as signatures, in canonical order."""
        return sorted_sets(set(self.by_point.values()))


def h_map(space: FiniteSpace, cover: Cover) -> HSignature:
    """Signature of every point; nonempty for each because covers cover."""
    sig = {
        x: frozenset(t for t, m in enumerate(cover.members) if x in m)
        for x in space.points
    }
    if any(not s for s in sig.values()):
        raise InternalInvariantError("covering point with empty signature")
    return HSignature(cover, sig)


def preorder_leq(h: HSignature, x: str, y: str) -> bool:
    """Point preorder: x below y when x's signature is contained in y's."""
    return h[x] <= h[y]


@dataclass(frozen=True)
class StratumClass:
    representative: str
    members: frozenset[str]
    signature: frozenset[int] | None


@dataclass(frozen=True)
class QuotientPoset:
    """Classes of points with equal U_x, class x below class y when y is in U_x.

    Class identifiers are the canonical representatives: the least member
    in the global point order.
    """

    classes: tuple[StratumClass, ...]
    poset: Poset
    point_class: Mapping[str, str]

    def class_by_id(self, rep: str) -> StratumClass:
        for c in self.classes:
            if c.representative == rep:
                return c
        raise InputError(f"unknown class {rep!r}")

    def class_of(self, point: str) -> str:
        if point not in self.point_class:
            raise InputError(f"unknown point {point!r}")
        return self.point_class[point]


def _inclusion_order(sigs: list[frozenset[int]]) -> list[int]:
    """Up-set masks of strict signature inclusion plus the diagonal: bit j
    of entry i when sigs[i] < sigs[j] or i = j."""
    bits = [sum(1 << t for t in s) for s in sigs]
    return [
        sum(1 << j for j, b in enumerate(bits) if not a & ~b and (a != b or i == j))
        for i, a in enumerate(bits)
    ]


def _t0_quotient(points: tuple[str, ...], minimal: Sequence[int], members) -> QuotientPoset:
    """T0 quotient of the U_x masks ``minimal`` on canonically ordered ``points``:
    points with equal U_x form a class named by its least point, and class x
    lies below class y when y is in U_x. A class's signature lists the
    ``members`` holding its representative, or is None without members."""
    groups: dict[int, list[int]] = {}
    for i, ux in enumerate(minimal):
        groups.setdefault(ux, []).append(i)
    reps = [g[0] for g in groups.values()]
    up = [sum(1 << k for k, r in enumerate(reps) if ux >> r & 1) for ux in groups]
    classes = tuple(
        StratumClass(points[r], frozenset(points[i] for i in g), None if members is None
                     else frozenset(t for t, m in enumerate(members) if points[r] in m))
        for r, g in zip(reps, groups.values())
    )
    poset = Poset._of_masks(tuple(points[r] for r in reps), up)
    point_class = {x: points[groups[ux][0]] for x, ux in zip(points, minimal)}
    return QuotientPoset(classes, poset, point_class)


def quotient_poset(space: FiniteSpace, cover: Cover) -> QuotientPoset:
    """The cover's signature quotient, read off the U_x the cover generates."""
    if cover.space != space:
        raise InputError("cover belongs to a different space")
    minimal = _generated_minimal(space.points, cover.members)
    return _t0_quotient(space.points, minimal, cover.members)


@dataclass(frozen=True)
class CertificateEntry:
    up_set: tuple[str, ...]
    preimage: frozenset[str]
    witness_open: frozenset[str]


@dataclass(frozen=True)
class ContinuityCertificate:
    entries: tuple[CertificateEntry, ...]

    @property
    def up_set_count(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Stratification:
    """A verified continuous surjection from a space onto a poset.

    ``space`` keeps its original (first) topology; ``second_topology`` is
    the one generated by the cover and is the topology all stratum-level
    notions use. For the identity stratification there is no cover and the
    two topologies coincide.
    """

    space: FiniteSpace
    cover: Cover | None
    quotient: QuotientPoset
    second_topology: FiniteSpace
    certificate: ContinuityCertificate

    @property
    def s(self) -> Mapping[str, str]:
        return self.quotient.point_class

    def class_of(self, point: str) -> str:
        return self.quotient.class_of(point)


def _verify_continuity(
    quotient: QuotientPoset, second: FiniteSpace
) -> ContinuityCertificate:
    """Certify the class map continuous by the test every point map uses."""
    if len(quotient.classes) > MAX_CLASSES:
        raise InputError(
            f"{len(quotient.classes)} classes exceed the up-set enumeration "
            f"bound of {MAX_CLASSES}"
        )
    s = PointMap(second, alexandroff_from_poset(quotient.poset), quotient.point_class)
    witness = continuity_counterexample(s)
    if witness is not None:
        up = sorted(witness[0])
        raise StructuralError(
            f"preimage of up-set {up} is not open in the generated topology",
            witness=tuple(up),
        )
    entries = []
    for up in s.codomain.opens_sorted():
        pre = s.preimage(up)
        entries.append(CertificateEntry(tuple(sorted(up)), pre, pre))
    return ContinuityCertificate(tuple(entries))


def standard_stratification(space: FiniteSpace, cover: Cover) -> Stratification:
    """Quotient map onto the signature poset, with continuity certified.

    Surjectivity is immediate (classes are nonempty fibers). Continuity
    for the cover's topology holds when each point's minimal open maps
    into the up-set of its class; the certificate lists every up-set of
    the quotient with its preimage, which is its witnessing open.
    """
    if cover.space != space:
        raise InputError("cover belongs to a different space")
    second = generate_topology(space.points, cover.members)
    quotient = _t0_quotient(space.points, second._minimal, cover.members)
    cert = _verify_continuity(quotient, second)
    if set(quotient.point_class.values()) != {c.representative for c in quotient.classes}:
        raise InternalInvariantError("quotient map is not surjective")
    return Stratification(space, cover, quotient, second, cert)


def stratum_preimage_formula(strat: Stratification, class_id: str) -> frozenset[str]:
    """Closed-form fiber of a class and its check against the actual fiber.

    Intersect the members indexed by the class signature, then delete
    every member outside the signature. Disagreement with the fiber is an
    internal invariant violation and must never happen.
    """
    if strat.cover is None:
        raise InputError("identity stratifications carry no cover signatures")
    cls = strat.quotient.class_by_id(class_id)
    members = strat.cover.members
    inter = frozenset(strat.space.points)
    for t in cls.signature:
        inter &= members[t]
    outside = [m for i, m in enumerate(members) if i not in cls.signature]
    minus = frozenset().union(*outside) if outside else frozenset()
    result = inter - minus
    if result != cls.members:
        raise InternalInvariantError(
            f"fiber formula for class {class_id} gave {sorted(result)}, "
            f"fiber is {sorted(cls.members)}"
        )
    return result


def preorder_to_partial_order(h: HSignature) -> Poset:
    """The partial order with x below y iff x <= y strictly, or x = y.

    Two points with equal signatures become incomparable. Validation of
    the returned poset certifies transitivity of the strict part.
    """
    return Poset._of_masks(h.points, _inclusion_order([h[x] for x in h.points]))


def preorder_from_stratification(strat: Stratification) -> frozenset[tuple[str, str]]:
    """Point preorder pulled back through s from the quotient order."""
    poset, s = strat.quotient.poset, strat.s
    return frozenset(
        (x, y)
        for x in strat.space.points
        for y in strat.space.points
        if poset.le(s[x], s[y])
    )


def identity_stratification(space: FiniteSpace) -> Stratification:
    """The space stratified over itself by the identity map.

    The order on points is the specialization order of the space's own
    topology: x <= y iff y lies in U_x. The identity is continuous onto
    that order's up-set topology exactly when the space is T0, that is
    when no two points share their minimal open, so non-T0 spaces are
    rejected naming the least such pair.
    """
    quotient = _t0_quotient(space.points, space._minimal, None)
    shared = next((c for c in quotient.classes if len(c.members) > 1), None)
    if shared is not None:
        x, y = sorted(shared.members)[:2]
        raise StructuralError(
            f"identity stratification needs a T0 space; {x} and {y} are "
            f"topologically indistinguishable",
            witness=(x, y),
        )
    cert = _verify_continuity(quotient, space)
    return Stratification(space, None, quotient, space, cert)
