"""Cover-induced stratifications of finite spaces.

An open cover assigns each point the set of cover-member indices that
contain it (its signature). Signature inclusion is a preorder on points;
its quotient by signature equality is a poset. As y lies in U_x exactly
when sig(x) is contained in sig(y), that poset is the T0 quotient of the
topology the cover generates, built from the member and U_x masks, with
the signatures as labels; names are made only for the result fields. The
quotient map, with that topology, is verified (never assumed) to be a
continuous surjection onto the quotient's up-set topology, decided on the
minimal opens as for every point map. The certificate listing each up-set
with its preimage is built on first use, and the fiber formula

    (intersection of the members in the signature)
        minus (union of the members outside it)

is checked against the actual fiber on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, or_
from typing import Mapping, Sequence

from .errors import InputError, InternalInvariantError, StructuralError
from .spaces import (
    FiniteSpace,
    PointMap,
    Poset,
    _bits,
    _mask_key,
    _minimal_opens,
    _names,
    alexandroff_from_poset,
    continuity_counterexample,
    sorted_sets,
)

MAX_CLASSES = 20


@dataclass(frozen=True)
class Cover:
    """An ordered list of nonempty open sets whose union is the space.

    Openness is judged in the space's own (first) topology; the topology
    the cover generates is a separate, usually coarser, second topology.
    ``_masks`` holds the members as point masks of the space.
    """

    space: FiniteSpace
    members: tuple[frozenset[str], ...]
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = tuple(frozenset(m) for m in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise InputError("cover needs at least one member")
        bit = {p: 1 << i for i, p in enumerate(self.space.points)}
        object.__setattr__(self, "_masks", tuple(sum(bit.get(p, 0) for p in m) for m in members))
        for i, (m, mask) in enumerate(zip(members, self._masks)):
            if not m:
                raise InputError(f"cover member {i} is empty")
            if mask.bit_count() != len(m) or mask not in self.space._open_masks:
                raise InputError(
                    f"cover member {i} = {sorted(m)} is not open in the space"
                )
        missing = (1 << len(self.space.points)) - 1 & ~reduce(or_, self._masks)
        if missing:
            raise InputError(f"cover misses points {_names(self.space.points, missing)}")

    @property
    def max_signature_size(self) -> int:
        """sup over points of the signature size; always finite here."""
        return max(sum(m >> i & 1 for m in self._masks) for i in range(len(self.space.points)))


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


def _t0_quotient(points: tuple[str, ...], minimal: Sequence[int], masks) -> QuotientPoset:
    """T0 quotient of the U_x masks ``minimal`` on canonically ordered ``points``:
    points with equal U_x form a class named by its least point, and class x
    lies below class y when y is in U_x. A class's signature lists the
    member ``masks`` holding its representative, or is None without masks."""
    groups: dict[int, list[int]] = {}
    for i, ux in enumerate(minimal):
        groups.setdefault(ux, []).append(i)
    reps = [g[0] for g in groups.values()]
    up = [sum(1 << k for k, r in enumerate(reps) if ux >> r & 1) for ux in groups]
    classes = tuple(
        StratumClass(points[r], frozenset(points[i] for i in g), None if masks is None
                     else frozenset(t for t, m in enumerate(masks) if m >> r & 1))
        for r, g in zip(reps, groups.values())
    )
    poset = Poset._of_masks(tuple(points[r] for r in reps), up)
    point_class = {x: points[groups[ux][0]] for x, ux in zip(points, minimal)}
    return QuotientPoset(classes, poset, point_class)


def quotient_poset(space: FiniteSpace, cover: Cover) -> QuotientPoset:
    """The cover's signature quotient, read off the U_x the cover generates."""
    if cover.space != space:
        raise InputError("cover belongs to a different space")
    return _t0_quotient(space.points, _minimal_opens(cover._masks, len(space.points)), cover._masks)


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
    two topologies coincide. Continuity is decided at construction; its
    certificate is listed on first use.
    """

    space: FiniteSpace
    cover: Cover | None
    quotient: QuotientPoset
    second_topology: FiniteSpace

    @cached_property
    def certificate(self) -> ContinuityCertificate:
        """Each up-set of the quotient, in canonical order, with its preimage as witnessing open."""
        classes, poset = self.quotient.classes, self.quotient.poset
        entries = []
        for up in sorted(alexandroff_from_poset(poset)._open_masks, key=_mask_key):
            pre = frozenset().union(*(classes[k].members for k in _bits(up)))
            entries.append(CertificateEntry(tuple(_names(poset.elements, up)), pre, pre))
        return ContinuityCertificate(tuple(entries))

    @property
    def s(self) -> Mapping[str, str]:
        return self.quotient.point_class

    def class_of(self, point: str) -> str:
        return self.quotient.class_of(point)


def _verify_continuity(quotient: QuotientPoset, second: FiniteSpace) -> None:
    """Decide the class map continuous by the test every point map uses."""
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


def standard_stratification(space: FiniteSpace, cover: Cover) -> Stratification:
    """Quotient map onto the signature poset, with continuity certified.

    Surjectivity is immediate (classes are nonempty fibers). Continuity
    for the cover's topology holds when each point's minimal open maps
    into the up-set of its class.
    """
    if cover.space != space:
        raise InputError("cover belongs to a different space")
    second = FiniteSpace._of_minimal(space.points, _minimal_opens(cover._masks, len(space.points)))
    quotient = _t0_quotient(space.points, second._minimal, cover._masks)
    _verify_continuity(quotient, second)
    if set(quotient.point_class.values()) != {c.representative for c in quotient.classes}:
        raise InternalInvariantError("quotient map is not surjective")
    return Stratification(space, cover, quotient, second)


def stratum_preimage_formula(strat: Stratification, class_id: str) -> frozenset[str]:
    """Closed-form fiber of a class and its check against the actual fiber.

    Intersect the members indexed by the class signature, then delete
    every member outside the signature. Disagreement with the fiber is an
    internal invariant violation and must never happen.
    """
    if strat.cover is None:
        raise InputError("identity stratifications carry no cover signatures")
    cls, masks = strat.quotient.class_by_id(class_id), strat.cover._masks
    inside = reduce(and_, [masks[t] for t in cls.signature], (1 << len(strat.space.points)) - 1)
    outside = reduce(or_, [m for t, m in enumerate(masks) if t not in cls.signature], 0)
    result = frozenset(_names(strat.space.points, inside & ~outside))
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
    _verify_continuity(quotient, space)
    return Stratification(space, None, quotient, space)
