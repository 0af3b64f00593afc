"""Cover signatures, quotient posets, and the standard stratification."""

from random import Random

import pytest

from stratcalc import (
    Cover,
    InputError,
    StructuralError,
    discrete_space,
    generate_topology,
    h_map,
    identity_stratification,
    indiscrete_space,
    preorder_from_stratification,
    preorder_leq,
    preorder_to_partial_order,
    quotient_poset,
    standard_stratification,
    stratum_preimage_formula,
)
from stratcalc.selftest import suite_stratify


def w_space():
    return discrete_space("abcd")


def w_cover(space=None):
    space = space or w_space()
    return Cover(space, (frozenset("ab"), frozenset("bc"), frozenset("cd")))


class TestHMap:
    def test_running_example(self):
        space = w_space()
        h = h_map(space, w_cover(space))
        assert h["a"] == {0}
        assert h["b"] == {0, 1}
        assert h["c"] == {1, 2}
        assert h["d"] == {2}

    def test_trivial_cover(self):
        space = w_space()
        h = h_map(space, Cover(space, (space.full,)))
        assert all(h[p] == {0} for p in space.points)

    def test_partition_cover(self):
        space = w_space()
        cover = Cover(space, tuple(frozenset({p}) for p in space.points))
        h = h_map(space, cover)
        assert len({h[p] for p in space.points}) == 4
        assert all(len(h[p]) == 1 for p in space.points)

    def test_unknown_point(self):
        h = h_map(w_space(), w_cover())
        with pytest.raises(InputError):
            h["z"]

    def test_cover_must_cover(self):
        space = w_space()
        with pytest.raises(InputError):
            Cover(space, (frozenset("ab"),))

    def test_cover_members_open_and_nonempty(self):
        space = generate_topology("abcd", [{"a", "b"}, {"b", "c"}, {"c", "d"}])
        with pytest.raises(InputError):
            Cover(space, (frozenset("ad"), space.full))
        with pytest.raises(InputError):
            Cover(space, (frozenset(), space.full))

    def test_signature_bound_recorded(self):
        assert w_cover().max_signature_size == 2

    def test_occurring_signature_family(self):
        h = h_map(w_space(), w_cover())
        assert h.occurring_subsets() == [
            frozenset({0}),
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2}),
        ]


class TestPreorder:
    def test_leq_examples(self):
        h = h_map(w_space(), w_cover())
        assert preorder_leq(h, "a", "b")
        assert not preorder_leq(h, "b", "c")
        assert all(preorder_leq(h, p, p) for p in "abcd")


class TestQuotientPoset:
    def test_running_example(self):
        q = quotient_poset(w_space(), w_cover())
        assert [c.representative for c in q.classes] == ["a", "b", "c", "d"]
        assert all(len(c.members) == 1 for c in q.classes)
        assert sorted(q.poset.strict_pairs()) == [("a", "b"), ("d", "c")]

    def test_trivial_cover(self):
        space = w_space()
        q = quotient_poset(space, Cover(space, (space.full,)))
        assert len(q.classes) == 1
        assert q.classes[0].members == space.full
        assert q.classes[0].representative == "a"

    def test_two_point_nested(self):
        space = discrete_space("ab")
        q = quotient_poset(space, Cover(space, (frozenset("ab"), frozenset("a"))))
        # b carries only the big member, a carries both
        assert sorted(q.poset.strict_pairs()) == [("b", "a")]


class TestStandardStratification:
    def test_running_example_certificate(self):
        strat = standard_stratification(w_space(), w_cover())
        entries = {e.up_set: e for e in strat.certificate.entries}
        assert ("b",) in entries
        assert entries[("b",)].preimage == frozenset("b")
        assert entries[("b",)].witness_open == frozenset("b")
        # the witness is the intersection of the first two cover members
        assert frozenset("b") == frozenset("ab") & frozenset("bc")

    def test_trivial_cover_two_up_sets(self):
        space = w_space()
        strat = standard_stratification(space, Cover(space, (space.full,)))
        assert len(strat.quotient.classes) == 1
        pres = [e.preimage for e in strat.certificate.entries]
        assert sorted(map(sorted, pres)) == [[], ["a", "b", "c", "d"]]

    def test_partition_cover_unions_of_blocks(self):
        space = w_space()
        cover = Cover(space, (frozenset("ab"), frozenset("cd")))
        strat = standard_stratification(space, cover)
        blocks = {frozenset("ab"), frozenset("cd")}
        for e in strat.certificate.entries:
            assert e.preimage in strat.second_topology.opens
            # preimages are unions of blocks
            rest = set(e.preimage)
            for b in blocks:
                if b <= e.preimage:
                    rest -= b
            assert not rest

    def test_class_bound_guard(self):
        # 21 points separated by 5 bitmask members give 21 classes
        points = [f"q{i:02d}" for i in range(1, 22)]
        masks = [
            frozenset(p for i, p in enumerate(points, start=1) if i & (1 << bit))
            for bit in range(5)
        ]
        space = generate_topology(points, masks)
        cover = Cover(space, tuple(masks))
        assert len(quotient_poset(space, cover).classes) == 21
        with pytest.raises(InputError):
            standard_stratification(space, cover)


class TestPreimageFormula:
    def test_running_example(self):
        strat = standard_stratification(w_space(), w_cover())
        assert stratum_preimage_formula(strat, "b") == frozenset("b")
        assert frozenset("ab") & frozenset("bc") - frozenset("cd") == frozenset("b")
        assert stratum_preimage_formula(strat, "a") == frozenset("a")
        assert frozenset("ab") - (frozenset("bc") | frozenset("cd")) == frozenset("a")

    def test_trivial_cover(self):
        space = w_space()
        strat = standard_stratification(space, Cover(space, (space.full,)))
        assert stratum_preimage_formula(strat, "a") == space.full

    def test_unknown_class(self):
        strat = standard_stratification(w_space(), w_cover())
        with pytest.raises(InputError):
            stratum_preimage_formula(strat, "z")

    def test_identity_stratification_has_no_signatures(self):
        strat = identity_stratification(discrete_space("ab"))
        with pytest.raises(InputError):
            stratum_preimage_formula(strat, "a")


class TestPartialOrderFromPreorder:
    def test_running_example(self):
        h = h_map(w_space(), w_cover())
        poset = preorder_to_partial_order(h)
        assert sorted(poset.strict_pairs()) == [("a", "b"), ("d", "c")]

    def test_constant_signature(self):
        space = w_space()
        h = h_map(space, Cover(space, (space.full,)))
        poset = preorder_to_partial_order(h)
        assert poset.strict_pairs() == frozenset()

    def test_equal_signatures_incomparable(self):
        space = discrete_space("ab")
        h = h_map(space, Cover(space, (space.full,)))
        poset = preorder_to_partial_order(h)
        assert poset.strict_pairs() == frozenset()
        # while the raw preorder relates them both ways
        assert preorder_leq(h, "a", "b") and preorder_leq(h, "b", "a")


class TestPreorderFromStratification:
    def test_matches_signature_preorder_for_standard_s(self):
        space = w_space()
        cover = w_cover(space)
        strat = standard_stratification(space, cover)
        h = h_map(space, cover)
        lifted = preorder_from_stratification(strat)
        direct = frozenset(
            (x, y)
            for x in space.points
            for y in space.points
            if preorder_leq(h, x, y)
        )
        assert lifted == direct

    def test_constant_s_total(self):
        space = w_space()
        strat = standard_stratification(space, Cover(space, (space.full,)))
        lifted = preorder_from_stratification(strat)
        assert len(lifted) == 16

    def test_identity_stratification(self):
        poset_space = generate_topology("ab", [{"b"}])
        strat = identity_stratification(poset_space)
        lifted = preorder_from_stratification(strat)
        assert lifted == strat.quotient.poset.leq


class TestIdentityStratification:
    def test_requires_t0(self):
        with pytest.raises(StructuralError):
            identity_stratification(indiscrete_space("ab"))

    def test_witness_is_the_first_pair_in_canonical_order(self):
        with pytest.raises(StructuralError) as info:
            identity_stratification(indiscrete_space("fedcba"))
        assert info.value.witness == ("a", "b")
        assert "a and b are" in str(info.value)

    def test_discrete_space(self):
        strat = identity_stratification(discrete_space("abc"))
        assert strat.cover is None
        assert strat.quotient.poset.strict_pairs() == frozenset()
        assert strat.second_topology is strat.space


def test_random_suite():
    assert suite_stratify(Random("pytest-stratify"), 40) == 40
