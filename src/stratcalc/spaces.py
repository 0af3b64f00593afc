"""Finite topological spaces, finite posets, and continuity checking.

Points are opaque strings. Their lexicographic order is the canonical
total order used everywhere a tie must be broken (class representatives,
serialization order, DOT labels).

A finite topology is the family of up-sets of its specialization
preorder (Alexandroff), so it is fixed by the minimal open U_x of each
point x, the intersection of every open that contains x. Point i of the
canonical order is bit i and a subset is an ``int``; a space keeps its
points, its U_x and its opens as one set of masks, which ``opens`` names
on first use. Since ``points`` is sorted, the canonical order of opens is
the order of their bit-index tuples.

* A family F holding the empty and the full set is closed under union
  and intersection exactly when u | U_x lies in F for every u in F and
  every point x, so validating an explicit family costs O(|F| * n) mask
  operations; the validated family is kept.
* Generated spaces are built from their U_x, checked to form a preorder
  in O(n^2). Their union closure is taken on first use, or at once above
  16 points, where it stops as soon as it grows past ``MAX_OPENS``;
  larger explicit families are refused.
* A map is continuous exactly when it is monotone for the specialization
  preorders, which takes O(n^2) bit tests on the U_x.
* A poset is one up-set mask per element and nothing else: the closure
  is a bitset Warshall pass, validation and the Hasse pairs take O(n^2)
  mask operations, ``le`` is a bit test, and ``leq`` and
  ``strict_pairs()`` are pair views built on demand.

All values here are immutable after construction and all operations are
pure, so everything is safe to use concurrently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError, InternalInvariantError

MAX_OPENS = 1 << 16
MAX_ZMOD = 1 << 40


def _set_key(s: frozenset) -> tuple:
    return tuple(sorted(s))


def sorted_sets(sets: Iterable[frozenset]) -> list[frozenset]:
    """Canonical deterministic ordering: lexicographic by sorted membership."""
    return sorted(sets, key=_set_key)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _names(points: tuple[str, ...], mask: int) -> list[str]:
    """Members of ``mask`` in canonical order (``points`` is sorted)."""
    return [points[i] for i in _bits(mask)]


def _mask_key(mask: int) -> tuple[int, ...]:
    """Sort key of a mask that orders sets as :func:`sorted_sets` does."""
    return tuple(_bits(mask))


def _minimal_opens(masks: list[int], n: int) -> tuple[int, ...]:
    """U_x for each of the ``n`` bits: the AND of the full set and every mask holding x."""
    full = (1 << n) - 1
    return tuple(
        reduce(and_, [m for m in masks if m >> i & 1], full) for i in range(n)
    )


def _union_closure(generators: Iterable[int]) -> set[int]:
    """Every union of ``generators``, the empty one included.

    Raises :class:`InputError` as soon as the family grows past
    ``MAX_OPENS`` members.
    """
    gens = set(generators)
    family = {0}
    queue = [0]
    for u in queue:
        for g in gens:
            w = u | g
            if w not in family:
                family.add(w)
                queue.append(w)
                if len(family) > MAX_OPENS:
                    raise InputError(f"generated topology exceeds {MAX_OPENS} opens")
    return family


def _closure_witness(
    points: tuple[str, ...], family: set[int], minimal: tuple[int, ...]
) -> str:
    """Name the first pair of opens, in canonical order, whose union or
    intersection leaves ``family``.

    The pairs (u, U_x) are scanned with u in canonical order and x in
    point order; some u | U_x must leave the family. When U_x is an open
    the failing pair is u, U_x. Otherwise the opens holding x are
    intersected one by one in canonical order: the running intersection
    starts in the family and ends at U_x outside it, so one step leaves.
    """
    ordered = sorted(family, key=_mask_key)
    for u in ordered:
        for x, ux in enumerate(minimal):
            if u | ux in family:
                continue
            if ux in family:
                return (
                    f"opens not closed under union: "
                    f"{_names(points, u)} | {_names(points, ux)}"
                )
            acc, *rest = [w for w in ordered if w >> x & 1]
            for w in rest:
                if acc & w not in family:
                    return (
                        f"opens not closed under intersection: "
                        f"{_names(points, acc)} & {_names(points, w)}"
                    )
                acc &= w
    raise InternalInvariantError("closure witness requested for a closed family")


@dataclass(frozen=True, init=False)
class FiniteSpace:
    """A finite set of points together with a topology on them.

    Bit j of ``_minimal[i]`` is set when points[j] lies in U_x for
    x = points[i], and ``_open_masks`` holds every open. The explicit
    family of ``FiniteSpace(points, opens)`` must hold the empty and the
    full set and be closed under pairwise union and intersection;
    construction checks this through the minimal opens and raises
    :class:`InputError` naming a failing pair otherwise.
    """

    points: tuple[str, ...]
    _minimal: tuple[int, ...]

    def __init__(self, points: Sequence[str], opens: Iterable[frozenset[str]]):
        opens = frozenset(opens)
        pts = frozenset(points)
        if len(pts) != len(points):
            raise InputError("duplicate point identifiers")
        points = tuple(sorted(points))
        if len(opens) > MAX_OPENS:
            raise InputError(f"topology has {len(opens)} opens; limit is {MAX_OPENS}")
        if not all(u <= pts for u in opens):
            u = min((u for u in opens if not u <= pts), key=_set_key)
            raise InputError(f"open set {sorted(u)} contains unknown points")
        if frozenset() not in opens or pts not in opens:
            raise InputError("topology must contain the empty set and the full set")
        bit = {p: 1 << i for i, p in enumerate(points)}
        masks = [sum(map(bit.__getitem__, u)) for u in opens]
        family = set(masks)
        minimal = _minimal_opens(masks, len(points))
        if not all(family.issuperset(map(ux.__or__, masks)) for ux in set(minimal)):
            raise InputError(_closure_witness(points, family, minimal))
        self.__dict__.update(points=points, _minimal=minimal, _open_masks=frozenset(family))

    @classmethod
    def _of_minimal(cls, points: tuple[str, ...], minimal: Sequence[int]) -> "FiniteSpace":
        """Space on canonically ordered ``points`` from U_x masks, which
        must form a preorder; more than ``MAX_OPENS`` opens are refused."""
        for i, ux in enumerate(minimal):
            if not ux >> i & 1 or ux >> len(points) or any(
                minimal[j] & ~ux for j in _bits(ux)
            ):
                raise InternalInvariantError(f"minimal opens are not a preorder at {points[i]}")
        space = object.__new__(cls)
        space.__dict__.update(points=points, _minimal=tuple(minimal))
        if 1 << len(points) > MAX_OPENS:
            space.__dict__["_open_masks"] = frozenset(_union_closure(minimal))
        return space

    def _subspace(self, names: frozenset[str]) -> "FiniteSpace":
        """The subspace on ``names``: each kept point's U_x cut down to them."""
        keep = [i for i, p in enumerate(self.points) if p in names]
        cut = [sum(1 << k for k, j in enumerate(keep) if self._minimal[i] >> j & 1) for i in keep]
        return FiniteSpace._of_minimal(tuple(self.points[i] for i in keep), cut)

    @cached_property
    def _open_masks(self) -> frozenset[int]:
        """Every open as a mask: the unions of the minimal opens, the empty one included."""
        return frozenset(_union_closure(self._minimal))

    @cached_property
    def opens(self) -> frozenset[frozenset[str]]:
        """Every open set, named."""
        return frozenset(frozenset(_names(self.points, m)) for m in self._open_masks)

    @property
    def full(self) -> frozenset[str]:
        return frozenset(self.points)

    def opens_sorted(self) -> list[frozenset[str]]:
        return sorted_sets(self.opens)

    def require_points(self, s: Iterable[str], what: str = "set") -> frozenset[str]:
        s = frozenset(s)
        unknown = s - self.full
        if unknown:
            raise InputError(f"{what} contains unknown points {sorted(unknown)}")
        return s


def generate_topology(points: Iterable[str], basis: Iterable[Iterable[str]]) -> FiniteSpace:
    """Smallest topology on ``points`` containing every basis member.

    The basis is treated as a subbasis. The minimal open of a point is
    the intersection of the members holding it (the full set if none
    does), and the opens are all unions of minimal opens. More than
    ``MAX_OPENS`` opens are refused while the closure grows.
    """
    points = tuple(sorted(set(points)))
    full = frozenset(points)
    bit = {p: 1 << i for i, p in enumerate(points)}
    masks = []
    for b in basis:
        b = frozenset(b)
        if not b <= full:
            raise InputError(f"basis member {sorted(b)} contains unknown points")
        masks.append(sum(map(bit.__getitem__, b)))
    return FiniteSpace._of_minimal(points, _minimal_opens(masks, len(points)))


def discrete_space(points: Iterable[str]) -> FiniteSpace:
    """All subsets open. Guarded to at most 16 points."""
    points = tuple(sorted(set(points)))
    if len(points) > 16:
        raise InputError("discrete space limited to 16 points")
    return FiniteSpace._of_minimal(points, [1 << i for i in range(len(points))])


def indiscrete_space(points: Iterable[str]) -> FiniteSpace:
    points = tuple(sorted(set(points)))
    return FiniteSpace._of_minimal(points, [(1 << len(points)) - 1] * len(points))


def spec_zmod(n: int) -> FiniteSpace:
    """Underlying space of the spectrum of the integers mod ``n``.

    The points are the distinct prime divisors of ``n`` (named ``p<prime>``)
    with the discrete topology; ``n = 1`` gives the empty space. The ring
    index 0 is rejected, and so is any ``n`` above ``MAX_ZMOD`` = 2**40,
    before trial division starts.
    """
    if not isinstance(n, int) or n < 1:
        raise InputError("spec_zmod requires a positive integer")
    if n > MAX_ZMOD:
        raise InputError(f"spec_zmod index {n} exceeds the bound 2**40")
    primes = []
    m, d = n, 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    return discrete_space(f"p{p}" for p in primes)


@dataclass(frozen=True, init=False)
class Poset:
    """A finite partial order, stored as one up-set mask per element.

    Bit j of ``_up[i]`` is set when elements[i] <= elements[j], with the
    elements in canonical order. ``Poset(elements, leq)`` builds one from
    the full reflexive relation as pairs; validation checks reflexivity,
    antisymmetry and transitivity on the masks and raises
    :class:`InputError` naming the first failure in canonical order.
    """

    elements: tuple[str, ...]
    _up: tuple[int, ...]

    def __init__(self, elements: Iterable[str], leq: Iterable[tuple[str, str]]):
        elements = tuple(sorted(elements))
        if len(set(elements)) != len(elements):
            raise InputError("duplicate poset elements")
        self._set(elements, _relation_masks(elements, leq, [0] * len(elements)))

    @classmethod
    def _of_masks(cls, elements: tuple[str, ...], up: Sequence[int]) -> "Poset":
        """Poset on canonically ordered ``elements`` from up-set masks, validated."""
        poset = object.__new__(cls)
        poset._set(elements, up)
        return poset

    def _set(self, elements: tuple[str, ...], up: Sequence[int]):
        """Check the three axioms on the masks, then store them."""
        for i, a in enumerate(elements):
            if not up[i] >> i & 1:
                raise InputError(f"relation not reflexive at {a}")
        for i, a in enumerate(elements):
            for j in _bits(up[i] & ~(1 << i)):
                if up[j] >> i & 1:
                    raise InputError(
                        f"relation not antisymmetric on ({a}, {elements[j]})"
                    )
        for i, a in enumerate(elements):
            for j in _bits(up[i]):
                missing = up[j] & ~up[i]
                if missing:
                    b, d = elements[j], elements[next(_bits(missing))]
                    raise InputError(
                        f"relation not transitive: ({a},{b}) and ({b},{d})"
                    )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_up", tuple(up))

    @classmethod
    def generate(cls, elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Poset":
        """Reflexive-transitive closure of generating pairs, then validation.

        The closure is a bitset Warshall pass over per-element up-set
        masks. A cycle among distinct elements surfaces as an
        antisymmetry error.
        """
        elements = tuple(sorted(set(elements)))
        up = _relation_masks(elements, pairs, [1 << i for i in range(len(elements))])
        for k in range(len(up)):
            for i in range(len(up)):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        return cls._of_masks(elements, up)

    def _at(self, e: str) -> int:
        """Index of ``e`` in ``elements``; ``len(elements)``, a bit no mask has, if absent."""
        i = bisect_left(self.elements, e)
        return i if self.elements[i:i + 1] == (e,) else len(self.elements)

    def le(self, a: str, b: str) -> bool:
        i = self._at(a)
        return i < len(self._up) and bool(self._up[i] >> self._at(b) & 1)

    @property
    def leq(self) -> frozenset[tuple[str, str]]:
        """The full reflexive relation as pairs (a, b) with a <= b."""
        return self.strict_pairs() | {(e, e) for e in self.elements}

    def strict_pairs(self) -> frozenset[tuple[str, str]]:
        els = self.elements
        return frozenset(
            (a, els[j]) for i, a in enumerate(els) for j in _bits(self._up[i] & ~(1 << i))
        )

    def up_sets(self) -> list[frozenset[str]]:
        """Every up-closed subset, in canonical order: the opens of the
        up-set topology. More than ``MAX_OPENS`` are refused."""
        return alexandroff_from_poset(self).opens_sorted()

    def covers(self) -> list[tuple[str, str]]:
        """Hasse pairs (a, b): a < b with nothing strictly between, in sorted order.

        The covers of a are its strict up-set minus the strict up-sets of
        its strict successors.
        """
        els = self.elements
        strict = [m & ~(1 << i) for i, m in enumerate(self._up)]
        return [
            (a, els[j])
            for a, s in zip(els, strict)
            for j in _bits(s & ~reduce(or_, [strict[k] for k in _bits(s)], 0))
        ]

    def is_monotone(self, mapping: Mapping[str, str], target: "Poset") -> bool:
        return self.monotone_counterexample(mapping, target) is None

    def monotone_counterexample(self, mapping: Mapping[str, str], target: "Poset"):
        """First pair (a, b) of ``sorted(leq)`` whose images are not ordered
        in ``target``, or None."""
        img = [target._at(mapping[e]) for e in self.elements]
        bad = _order_breach(self._up, img, target._up + (0,))
        return None if bad is None else (self.elements[bad[0]], self.elements[bad[1]])


def _order_breach(up: Sequence[int], img: Sequence[int], target_up: Sequence[int]):
    """First (i, j) in order with j in ``up[i]`` but img[j] not in ``target_up[img[i]]``."""
    for i, m in enumerate(up):
        for j in _bits(m):
            if not target_up[img[i]] >> img[j] & 1:
                return (i, j)
    return None


def _relation_masks(elements: tuple[str, ...], pairs, up: list[int]) -> list[int]:
    """Set bit j of ``up[i]`` for each pair (elements[i], elements[j]); the
    least pair naming an unknown element is refused."""
    index = {e: i for i, e in enumerate(elements)}
    unknown = []
    for a, b in pairs:
        if a in index and b in index:
            up[index[a]] |= 1 << index[b]
        else:
            unknown.append((a, b))
    if unknown:
        a, b = min(unknown, key=lambda p: tuple(map(str, p)))
        raise InputError(f"relation pair ({a}, {b}) has unknown elements")
    return up


def alexandroff_from_poset(poset: Poset) -> FiniteSpace:
    """Topology whose opens are exactly the up-closed sets of the poset:
    the unions of its principal up-sets, the empty union included."""
    return FiniteSpace._of_minimal(poset.elements, poset._up)


def specialization_preorder(space: FiniteSpace) -> frozenset[tuple[str, str]]:
    """Pairs (x, y) such that every open containing x also contains y.

    Those y are the members of the minimal open U_x. For a finite space
    the opens are exactly the up-closed sets of this preorder, so it
    inverts :func:`alexandroff_from_poset`.
    """
    pts = space.points
    return frozenset(
        (x, pts[j]) for i, x in enumerate(pts) for j in _bits(space._minimal[i])
    )


@dataclass(frozen=True)
class PointMap:
    """A total function between the point sets of two finite spaces."""

    domain: FiniteSpace
    codomain: FiniteSpace
    table: Mapping[str, str]

    def __post_init__(self):
        missing = set(self.domain.points) - set(self.table)
        if missing:
            raise InputError(f"map undefined on points {sorted(missing)}")
        extra = set(self.table) - set(self.domain.points)
        if extra:
            raise InputError(f"map defined on unknown points {sorted(extra)}")
        bad = {p for p in self.domain.points if self.table[p] not in self.codomain.full}
        if bad:
            raise InputError(f"map sends {sorted(bad)} outside the codomain")
        object.__setattr__(self, "table", dict(self.table))

    def __call__(self, p: str) -> str:
        return self.table[p]

    def preimage(self, s: Iterable[str]) -> frozenset[str]:
        s = frozenset(s)
        return frozenset(p for p in self.domain.points if self.table[p] in s)


def identity_map(space: FiniteSpace) -> PointMap:
    return PointMap(space, space, {p: p for p in space.points})


def compose_maps(late: PointMap, early: PointMap) -> PointMap:
    if set(early.codomain.points) != set(late.domain.points):
        raise InputError("composition mismatch: codomain and domain differ")
    return PointMap(
        early.domain, late.codomain, {p: late(early(p)) for p in early.domain.points}
    )


def continuity_counterexample(m: PointMap):
    """First codomain open whose preimage is not open, or None. The verdict
    is f(U_x) in U_{f(x)} for every x; only a failure scans the opens."""
    index = {p: i for i, p in enumerate(m.codomain.points)}
    img = [index[m.table[p]] for p in m.domain.points]
    if _order_breach(m.domain._minimal, img, m.codomain._minimal) is None:
        return None
    for u in sorted(m.codomain._open_masks, key=_mask_key):
        pre = sum(1 << i for i, j in enumerate(img) if u >> j & 1)
        if pre not in m.domain._open_masks:
            return frozenset(_names(m.codomain.points, u)), frozenset(_names(m.domain.points, pre))
    raise InternalInvariantError("map is not monotone, yet every preimage is open")


def check_continuity(m: PointMap) -> bool:
    """True iff the preimage of every codomain open is a domain open."""
    return continuity_counterexample(m) is None
