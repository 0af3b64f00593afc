"""Cover refinement and the cover-independent limit poset.

A refinement of a cover is a cover of the same space containing all of
its members (as sets), possibly more. Refining can only split signature
classes, so every refinement induces a surjection from the fine quotient
onto the coarse one; that surjection is always well defined and monotone
and is the workhorse here. The section picking, for each coarse class,
the fine class of its canonical representative is also provided; it is a
right inverse of the surjection by construction but need not be monotone
or injective, so those two facts are reported rather than required.

Over a finite space the covers ordered by refinement have a top element:
the cover by all nonempty opens. Its quotient therefore realizes the
limit over all covers, and every cover's quotient receives a coarsening
surjection from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InputError, InternalInvariantError
from .spaces import FiniteSpace, _names
from .stratify import Cover, QuotientPoset, _t0_quotient, quotient_poset


@dataclass(frozen=True)
class RefinementPair:
    coarse: Cover
    fine: Cover

    def __post_init__(self):
        if self.coarse.space != self.fine.space:
            raise InputError("refinement pair must share one space")
        if not is_refinement(self.coarse, self.fine):
            raise InputError("fine cover does not contain every coarse member")


def is_refinement(coarse: Cover, fine: Cover) -> bool:
    """Member-set inclusion; multiplicity is ignored."""
    if coarse.space != fine.space:
        raise InputError("covers live on different spaces")
    return set(coarse.members) <= set(fine.members)


@dataclass(frozen=True)
class ClassMap:
    """A map between quotient posets, recorded with its certificates."""

    source: QuotientPoset
    target: QuotientPoset
    mapping: Mapping[str, str]
    monotone: bool
    surjective: bool

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))

    def __call__(self, class_id: str) -> str:
        return self.mapping[class_id]


def coarsening_surjection(pair: RefinementPair) -> ClassMap:
    """Send each fine class to the coarse class of its points.

    Well-definedness (points of one fine class share a coarse class),
    surjectivity, and monotonicity are theorems at this finiteness; they
    are verified anyway and any failure is an internal error.
    """
    return _coarsening(
        quotient_poset(pair.fine.space, pair.fine),
        quotient_poset(pair.coarse.space, pair.coarse),
    )


def _coarsening(fine_q: QuotientPoset, coarse_q: QuotientPoset) -> ClassMap:
    """The verified coarsening surjection between the quotients of a refinement pair."""
    mapping = {}
    for cls in fine_q.classes:
        images = {coarse_q.class_of(p) for p in cls.members}
        if len(images) != 1:
            raise InternalInvariantError(
                f"fine class {cls.representative} straddles coarse classes "
                f"{sorted(images)}"
            )
        mapping[cls.representative] = images.pop()
    if set(mapping.values()) != {c.representative for c in coarse_q.classes}:
        raise InternalInvariantError("coarsening map is not surjective")
    bad = fine_q.poset.monotone_counterexample(mapping, coarse_q.poset)
    if bad is not None:
        raise InternalInvariantError(f"coarsening map not monotone at {bad}")
    return ClassMap(fine_q, coarse_q, mapping, monotone=True, surjective=True)


@dataclass(frozen=True)
class SectionReport:
    section: ClassMap
    injective: bool
    monotone: bool


def representative_section(pair: RefinementPair) -> SectionReport:
    """Send each coarse class to the fine class of its representative.

    Composing with the coarsening surjection gives the identity on coarse
    classes by construction, and is verified. Injectivity and
    monotonicity can genuinely fail when refinement splits classes, so
    they are reported, not raised.
    """
    surjection = coarsening_surjection(pair)
    fine_q, coarse_q = surjection.source, surjection.target
    mapping = {
        cls.representative: fine_q.class_of(cls.representative)
        for cls in coarse_q.classes
    }
    for c, f in mapping.items():
        if surjection(f) != c:
            raise InternalInvariantError(
                f"section of {c} lands in {f} which coarsens to {surjection(f)}"
            )
    injective = len(set(mapping.values())) == len(mapping)
    monotone = coarse_q.poset.is_monotone(mapping, fine_q.poset)
    section = ClassMap(
        coarse_q, fine_q, mapping,
        monotone=monotone,
        surjective=len(set(mapping.values())) == len(fine_q.classes),
    )
    return SectionReport(section, injective, monotone)


def maximal_cover(space: FiniteSpace) -> Cover:
    """The top of the refinement order: all nonempty opens, in canonical order."""
    if not space.points:
        raise InputError("nonempty space required")
    named = sorted(_names(space.points, m) for m in space._open_masks if m)
    return Cover(space, tuple(map(frozenset, named)))


def refined_poset(space: FiniteSpace) -> QuotientPoset:
    """Quotient poset of the maximal cover.

    The refinement order on covers of a finite space is a finite directed
    system with the maximal cover on top, so this poset is the limit of
    the quotients over all covers and does not depend on any cover choice.
    As the maximal cover generates the space's own topology, this is the T0
    quotient of the space, read off its U_x, with signatures as labels.
    """
    return _t0_quotient(space.points, space._minimal, maximal_cover(space)._masks)


def coarsening_from_refined(space: FiniteSpace, cover: Cover) -> ClassMap:
    """Surjection from the limit poset onto the given cover's poset."""
    if cover.space != space:
        raise InputError("refinement pair must share one space")
    return _coarsening(refined_poset(space), quotient_poset(space, cover))
