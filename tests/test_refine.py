"""Refinement of covers and the cover-independent limit poset."""

import hashlib
import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratcalc import (
    Cover,
    FiniteSpace,
    InputError,
    RefinementPair,
    alexandroff_from_poset,
    coarsening_from_refined,
    coarsening_surjection,
    discrete_space,
    generate_topology,
    is_refinement,
    maximal_cover,
    refined_poset,
    representative_section,
    spec_zmod,
)
from stratcalc import documents
from stratcalc.refine import RefinementPair
from stratcalc.selftest import suite_refine
from stratcalc.spaces import Poset
from stratcalc.stratify import quotient_poset


def w_space():
    return discrete_space("abcd")


U1, U2, U3 = frozenset("ab"), frozenset("bc"), frozenset("cd")


class TestIsRefinement:
    def test_superset_refines(self):
        space = w_space()
        coarse = Cover(space, (U1, U2, U3))
        fine = Cover(space, (U1, U2, U3, frozenset("b")))
        assert is_refinement(coarse, fine)

    def test_reflexive(self):
        cover = Cover(w_space(), (U1, U2, U3))
        assert is_refinement(cover, cover)

    def test_missing_member(self):
        space = w_space()
        left = Cover(space, (U1, U2, space.full))
        right = Cover(space, (U1, U3, space.full))
        assert not is_refinement(left, right)

    def test_different_spaces_rejected(self):
        a = discrete_space("ab")
        b = discrete_space("abc")
        with pytest.raises(InputError):
            is_refinement(Cover(a, (a.full,)), Cover(b, (b.full,)))


class TestCoarseningSurjection:
    def test_split_class(self):
        space = w_space()
        pair = RefinementPair(
            Cover(space, (space.full,)),
            Cover(space, (space.full, frozenset("b"))),
        )
        cm = coarsening_surjection(pair)
        fine_classes = {c.representative: c.members for c in cm.source.classes}
        assert fine_classes == {"a": frozenset("acd"), "b": frozenset("b")}
        assert cm("a") == "a" and cm("b") == "a"
        assert cm.monotone and cm.surjective

    def test_equal_covers_identity(self):
        space = w_space()
        cover = Cover(space, (U1, U2, U3))
        cm = coarsening_surjection(RefinementPair(cover, cover))
        assert all(cm(c.representative) == c.representative for c in cm.source.classes)

    def test_already_separated_bijection(self):
        space = w_space()
        pair = RefinementPair(
            Cover(space, (U1, U2, U3)),
            Cover(space, (U1, U2, U3, frozenset("a"))),
        )
        cm = coarsening_surjection(pair)
        images = [cm(c.representative) for c in cm.source.classes]
        assert sorted(images) == ["a", "b", "c", "d"]
        assert len(set(images)) == len(images)


def assert_retracts(pair, report):
    """The section followed by the coarsening surjection is the identity."""
    surjection = coarsening_surjection(pair)
    assert all(surjection(f) == c for c, f in report.section.mapping.items())


class TestRepresentativeSection:
    def test_split_class_section(self):
        space = w_space()
        pair = RefinementPair(
            Cover(space, (space.full,)),
            Cover(space, (space.full, frozenset("b"))),
        )
        report = representative_section(pair)
        # the unique coarse class has representative a, which lands in the
        # fine class {a, c, d} whose representative is also a
        assert report.section.mapping == {"a": "a"}
        assert_retracts(pair, report)
        assert report.injective

    def test_equal_covers(self):
        space = w_space()
        cover = Cover(space, (U1, U2, U3))
        pair = RefinementPair(cover, cover)
        report = representative_section(pair)
        assert report.injective and report.monotone
        assert_retracts(pair, report)

    def test_separating_refinement_inverse(self):
        # adding the member {a} keeps the classes but drops the relation
        # a < b: the fine signatures {0,3} and {0,1} are incomparable, so
        # the section is the inverse bijection yet fails monotonicity,
        # which is exactly why it is reported instead of required
        space = w_space()
        pair = RefinementPair(
            Cover(space, (U1, U2, U3)),
            Cover(space, (U1, U2, U3, frozenset("a"))),
        )
        fine_q = quotient_poset(space, pair.fine)
        assert sorted(fine_q.poset.strict_pairs()) == [("d", "c")]
        report = representative_section(pair)
        cm = coarsening_surjection(pair)
        assert report.injective
        assert not report.monotone
        assert cm.monotone  # the surjection direction never loses order
        for coarse, fine in report.section.mapping.items():
            assert cm(fine) == coarse


class TestRefinedPoset:
    def test_discrete_running_example(self):
        space = w_space()
        cover = maximal_cover(space)
        assert len(cover.members) == 15  # all nonempty subsets
        q = refined_poset(space)
        assert [c.representative for c in q.classes] == ["a", "b", "c", "d"]
        assert q.poset.strict_pairs() == frozenset()

    def test_one_point_space(self):
        q = refined_poset(discrete_space("a"))
        assert len(q.classes) == 1

    def test_chain_space(self):
        space = alexandroff_from_poset(Poset.generate("ab", [("a", "b")]))
        # opens: {}, {b}, {a, b}; maximal cover in canonical order
        cover = maximal_cover(space)
        assert [sorted(m) for m in cover.members] == [["a", "b"], ["b"]]
        h_a = frozenset(
            i for i, m in enumerate(cover.members) if "a" in m
        )
        h_b = frozenset(
            i for i, m in enumerate(cover.members) if "b" in m
        )
        assert h_a == {0} and h_b == {0, 1}
        q = refined_poset(space)
        assert sorted(q.poset.strict_pairs()) == [("a", "b")]

    def test_empty_space_rejected(self):
        with pytest.raises(InputError):
            refined_poset(spec_zmod(1))

    def test_terminality_onto_sampled_cover(self):
        space = w_space()
        cover = Cover(space, (U1, U2, U3))
        cm = coarsening_from_refined(space, cover)
        assert cm.surjective and cm.monotone
        assert cm.target.classes == quotient_poset(space, cover).classes


@st.composite
def small_spaces(draw):
    """A space on at most 7 points of varying name lengths, generated from
    a random basis or order, or given by the explicit family of one."""
    points = ["a", "aa", "ab", "b", "ba", "c", "d"][: draw(st.integers(min_value=1, max_value=7))]
    point = st.sampled_from(points)
    if draw(st.booleans()):
        space = generate_topology(points, draw(st.lists(st.frozensets(point), max_size=4)))
    else:
        pairs = draw(st.lists(st.tuples(point, point), max_size=8))
        space = alexandroff_from_poset(Poset.generate(points, [(a, b) for a, b in pairs if a < b]))
    return FiniteSpace(space.points, space.opens) if draw(st.booleans()) else space


@given(small_spaces())
@settings(max_examples=100, deadline=None)
def test_maximal_cover_lists_the_nonempty_opens_in_canonical_order(space):
    assert list(maximal_cover(space).members) == [u for u in space.opens_sorted() if u]


def test_random_suite():
    assert suite_refine(Random("pytest-refine"), 30) == 30


# sha256 of the sorted-key JSON of dump_refined(refined_poset(space), None),
# computed when the limit was still the maximal cover's signature quotient
LIMIT_SHA256 = {
    "chain400": "7c647cf040bfbd5b8162adb709efcd80f006b21f7a92aa5c7cc3ed2d4cca73f9",
    "discrete12": "b72409b4d8b8a53ef77d3cffc899ea7575952d5c3929686cb1504aeeff0bc394",
    "basis7": "9024ab1e8a44f5e4a96da25063e12c19e01a2cdb30c13e0591b153e6762ff03f",
}


def limit_spaces():
    chain = [f"p{i:03d}" for i in range(400)]
    return {
        "chain400": alexandroff_from_poset(Poset.generate(chain, list(zip(chain, chain[1:])))),
        "discrete12": discrete_space([f"q{i:02d}" for i in range(12)]),
        "basis7": generate_topology(
            "abcdefg", [set("abc"), set("cde"), set("abcdefg"), set("fg"), set("ab")]
        ),
    }


@pytest.mark.parametrize("name", sorted(LIMIT_SHA256))
def test_limit_documents_are_unchanged(name):
    doc = documents.dump_refined(refined_poset(limit_spaces()[name]), None)
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == LIMIT_SHA256[name]
