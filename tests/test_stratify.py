"""Cover signatures, quotient posets, and the standard stratification."""

import hashlib
import json
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stratcalc import (
    Cover,
    InputError,
    Poset,
    StructuralError,
    alexandroff_from_poset,
    alt_induce_g,
    check_square,
    discrete_space,
    generate_topology,
    h_map,
    identity_map,
    identity_stratification,
    indiscrete_space,
    induce_g,
    maximal_cover,
    preorder_from_stratification,
    preorder_leq,
    preorder_to_partial_order,
    quotient_poset,
    refined_poset,
    standard_stratification,
    stratum_preimage_formula,
)
from stratcalc.selftest import suite_stratify
from stratcalc.stratify import _verify_continuity

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402
import worker  # noqa: E402

# sha256 over [op, i, error, doc] of every record of the benchmark's
# strata round for seed 1, computed before the certificate was decided
# on the minimal opens
STRATA_1_SHA256 = "ffd5789fd83168eedb337d269a17274a2783d1cf0e8a4f693afe34af62a51866"


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

    @pytest.mark.parametrize("members, message", [
        ((), "cover needs at least one member"),
        (("", "abcd"), "cover member 0 is empty"),
        (("ab", "ad"), "cover member 1 = ['a', 'd'] is not open in the space"),
        (("ab", "bz"), "cover member 1 = ['b', 'z'] is not open in the space"),
        (("ab", "bc"), "cover misses points ['d']"),
    ])
    def test_cover_refusal_texts(self, members, message):
        space = generate_topology("abcd", [{"a", "b"}, {"b", "c"}, {"c", "d"}])
        with pytest.raises(InputError) as info:
            Cover(space, tuple(map(frozenset, members)))
        assert str(info.value) == message

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


class TestCertificate:
    def chain_quotient(self):
        # the 3-point chain a < b < c quotiented by its nonempty up-sets
        space = alexandroff_from_poset(Poset.generate("abc", [("a", "b"), ("b", "c")]))
        return quotient_poset(space, Cover(space, tuple(u for u in space.opens_sorted() if u)))

    def test_wrong_topology_names_the_first_failing_up_set(self):
        quotient, second = self.chain_quotient(), indiscrete_space("abc")
        members = {c.representative: c.members for c in quotient.classes}
        first = next(
            up for up in quotient.poset.up_sets()
            if frozenset().union(*(members[r] for r in up)) not in second.opens
        )
        with pytest.raises(StructuralError) as info:
            _verify_continuity(quotient, second)
        assert info.value.witness == tuple(sorted(first)) == ("b", "c")
        assert str(info.value) == (
            "preimage of up-set ['b', 'c'] is not open in the generated topology"
        )

    def test_class_bound_is_refused_before_continuity(self):
        # 21 classes and a topology that would fail the continuity test
        points = [f"q{i:02d}" for i in range(1, 22)]
        masks = [
            frozenset(p for i, p in enumerate(points, start=1) if i & (1 << bit))
            for bit in range(5)
        ]
        space = generate_topology(points, masks)
        quotient = quotient_poset(space, Cover(space, tuple(masks)))
        with pytest.raises(InputError, match="21 classes exceed the up-set enumeration"):
            _verify_continuity(quotient, indiscrete_space(points))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_entries_are_the_up_sets_with_their_preimages(self, data):
        points = "abcdef"[: data.draw(st.integers(min_value=1, max_value=6))]
        subsets = st.frozensets(st.sampled_from(points))
        if data.draw(st.booleans()):
            space = generate_topology(points, data.draw(st.lists(subsets, max_size=4)))
            opens = [u for u in space.opens_sorted() if u]
            members = data.draw(st.lists(st.sampled_from(opens), min_size=1, max_size=5))
            if frozenset().union(*members) != space.full:
                members.append(space.full)
            strat = standard_stratification(space, Cover(space, tuple(members)))
        else:
            pairs = data.draw(st.lists(st.tuples(st.sampled_from(points),
                                                 st.sampled_from(points)), max_size=8))
            poset = Poset.generate(points, [(a, b) for a, b in pairs if a < b])
            strat = identity_stratification(alexandroff_from_poset(poset))
        members = {c.representative: c.members for c in strat.quotient.classes}
        expected = []
        for up in strat.quotient.poset.up_sets():
            pre = frozenset().union(*(members[r] for r in up))
            expected.append((tuple(sorted(up)), pre, pre))
        assert [
            (e.up_set, e.preimage, e.witness_open) for e in strat.certificate.entries
        ] == expected


def test_opens_and_certificate_are_listed_only_on_demand():
    # covers, quotients, continuity and squares are decided on masks, so
    # neither open family is named and the certificate is never listed
    space = discrete_space([f"q{i:02d}" for i in range(16)])
    singletons = tuple(frozenset([p]) for p in space.points)
    strat = standard_stratification(space, Cover(space, singletons))
    f = identity_map(space)
    for result in (induce_g(f, strat, strat), alt_induce_g(f, strat)):
        check_square(result.square)
    assert "opens" not in vars(space) and "opens" not in vars(strat.second_topology)
    assert "certificate" not in vars(strat)


def test_strata_round_documents_are_unchanged():
    rnd = worker.Round(worker.Tracer(False))
    worker.run_strata(gen.strata_round(1), rnd)
    digest = hashlib.sha256()
    for r in rnd.records:
        digest.update(json.dumps([r["op"], r["i"], r["error"], r["doc"]], sort_keys=True).encode())
    assert digest.hexdigest() == STRATA_1_SHA256


def brute_quotient(space, cover):
    """Classes, order and class map grouped from the h_map signatures."""
    h = h_map(space, cover)
    fibers = {}
    for x in space.points:
        fibers.setdefault(h[x], []).append(x)
    classes = sorted((min(m), frozenset(m), sig) for sig, m in fibers.items())
    order = {(a, b) for a, _, sa in classes for b, _, sb in classes if sa <= sb}
    return classes, order, {x: min(fibers[h[x]]) for x in space.points}


def quotient_parts(q):
    return (
        [(c.representative, c.members, c.signature) for c in q.classes],
        q.poset.leq,
        q.point_class,
    )


@st.composite
def spaces_and_covers(draw):
    """A space on at most 7 points, generated from a random basis or a
    random order, and a cover of it by random nonempty opens."""
    points = "abcdefg"[: draw(st.integers(min_value=1, max_value=7))]
    if draw(st.booleans()):
        basis = draw(st.lists(st.frozensets(st.sampled_from(points)), max_size=4))
        space = generate_topology(points, basis)
    else:
        pair = st.tuples(st.sampled_from(points), st.sampled_from(points))
        pairs = draw(st.lists(pair, max_size=8))
        space = alexandroff_from_poset(Poset.generate(points, [(a, b) for a, b in pairs if a < b]))
    opens = [u for u in space.opens_sorted() if u]
    members = draw(st.lists(st.sampled_from(opens), min_size=1, max_size=5))
    if frozenset().union(*members) != space.full:
        members.append(space.full)
    return space, Cover(space, tuple(members))


class TestT0Quotient:
    @given(spaces_and_covers())
    @settings(max_examples=200, deadline=None)
    def test_every_quotient_matches_the_signature_grouping(self, case):
        space, cover = case
        expected = brute_quotient(space, cover)
        assert quotient_parts(quotient_poset(space, cover)) == expected
        assert quotient_parts(standard_stratification(space, cover).quotient) == expected
        limit = brute_quotient(space, maximal_cover(space))
        assert quotient_parts(refined_poset(space)) == limit

    @given(spaces_and_covers())
    @settings(max_examples=200, deadline=None)
    def test_identity_witness_is_the_least_pair_with_equal_minimal_opens(self, case):
        space, _ = case
        minimal = {
            x: frozenset(space.points).intersection(*(u for u in space.opens if x in u))
            for x in space.points
        }
        pairs = [
            (x, y) for x in space.points for y in space.points
            if x < y and minimal[x] == minimal[y]
        ]
        assume(pairs)
        x, y = min(pairs)
        with pytest.raises(StructuralError) as info:
            identity_stratification(space)
        assert info.value.witness == (x, y)
        assert str(info.value) == (
            f"identity stratification needs a T0 space; {x} and {y} are "
            f"topologically indistinguishable"
        )

    def test_cover_of_another_space_is_refused(self):
        # same points with another topology, and more points
        for other in (indiscrete_space("abcd"), discrete_space("abcde")):
            cover = Cover(other, (other.full,))
            for build in (quotient_poset, standard_stratification):
                with pytest.raises(InputError, match="^cover belongs to a different space$"):
                    build(w_space(), cover)
