"""Finite spaces, posets, and continuity."""

import ast
import re
import time
from itertools import chain, combinations
from random import Random

import pytest
import stratcalc.spaces
from hypothesis import given, settings
from hypothesis import strategies as st

from stratcalc import (
    Cover,
    FiniteSpace,
    InputError,
    InternalInvariantError,
    PointMap,
    Poset,
    alexandroff_from_poset,
    check_continuity,
    discrete_space,
    generate_topology,
    indiscrete_space,
    quotient_poset,
    spec_zmod,
    specialization_preorder,
)
from stratcalc.selftest import suite_spaces
from stratcalc.spaces import continuity_counterexample, sorted_sets


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def subbasis_normal_form(points, basis):
    """Oracle: opens are exactly the unions of finite intersections of
    basis members, plus the empty and full sets."""
    full = frozenset(points)
    intersections = {full}
    for picks in powerset(basis):
        if picks:
            inter = full
            for b in picks:
                inter = inter & frozenset(b)
            intersections.add(inter)
    opens = set()
    for picks in powerset(sorted(intersections, key=sorted)):
        union = frozenset()
        for s in picks:
            union = union | s
        opens.add(union)
    opens.add(frozenset())
    opens.add(full)
    return opens


def pairwise_closure(points, basis):
    """Reference: close basis + {empty, full} under pairwise union and
    intersection until nothing new appears."""
    family = {frozenset(), frozenset(points)} | {frozenset(b) for b in basis}
    while True:
        fresh = {u | w for u in family for w in family}
        fresh |= {u & w for u in family for w in family}
        if fresh <= family:
            return family
        family |= fresh


def pairwise_closed(family):
    return all(u | w in family and u & w in family for u in family for w in family)


def brute_force_order_closure(elements, pairs):
    """Reference: reflexive-transitive closure by repeated composition."""
    rel = {(a, a) for a in elements} | set(pairs)
    while True:
        fresh = {(a, d) for a, b in rel for c, d in rel if b == c}
        if fresh <= rel:
            return rel
        rel |= fresh


def is_partial_order(elements, rel):
    return (
        all((a, a) in rel for a in elements)
        and all(a == b or (b, a) not in rel for a, b in rel)
        and all((a, d) in rel for a, b in rel for c, d in rel if b == c)
    )


def subsets_of(points):
    return st.frozensets(st.sampled_from(points))


@st.composite
def families(draw):
    """Families holding the empty and the full set on at most 6 points:
    topologies with one set toggled (near misses) or arbitrary sets."""
    points = "abcdef"[: draw(st.integers(min_value=1, max_value=6))]
    if draw(st.booleans()):
        basis = draw(st.lists(subsets_of(points), max_size=4))
        family = pairwise_closure(points, basis)
        if draw(st.booleans()):
            family ^= {draw(subsets_of(points))}
    else:
        family = set(draw(st.lists(subsets_of(points), max_size=12)))
    family |= {frozenset(), frozenset(points)}
    return tuple(points), frozenset(family)


@st.composite
def relations(draw):
    """Elements and generating pairs on at most 6 elements, cycles allowed."""
    elements = "abcdef"[: draw(st.integers(min_value=1, max_value=6))]
    pair = st.tuples(st.sampled_from(elements), st.sampled_from(elements))
    return tuple(elements), draw(st.lists(pair, max_size=8))


@st.composite
def partial_orders(draw, max_elements=8):
    """Elements and generating pairs of a partial order on at most 8
    elements. The pairs follow a drawn linear extension, so they point
    both ways in the canonical order."""
    n = draw(st.integers(min_value=0, max_value=max_elements))
    chain = draw(st.permutations("abcdefgh"[:n]))
    index = st.integers(min_value=0, max_value=max(n - 1, 0))
    picks = draw(st.lists(st.tuples(index, index), max_size=12)) if n else []
    return tuple(sorted(chain)), [(chain[i], chain[j]) for i, j in picks if i < j]


@st.composite
def discrete_covers(draw):
    """A discrete space on at most 8 points and a cover of it."""
    points = "abcdefgh"[: draw(st.integers(min_value=1, max_value=8))]
    members = draw(st.lists(st.frozensets(st.sampled_from(points), min_size=1), max_size=6))
    missed = frozenset(points).difference(*members)
    return discrete_space(points), tuple(members) + ((missed,) if missed else ())


WITNESS = re.compile(r"opens not closed under (union|intersection): (\[.*?\]) [|&] (\[.*?\])$")


class TestFiniteSpaceValidation:
    @given(families())
    @settings(max_examples=400, deadline=None)
    def test_accepts_exactly_the_pairwise_closed_families(self, case):
        points, family = case
        if pairwise_closed(family):
            assert FiniteSpace(points, family).opens == family
            return
        with pytest.raises(InputError) as info:
            FiniteSpace(points, family)
        kind, u, w = WITNESS.match(str(info.value)).groups()
        u, w = frozenset(ast.literal_eval(u)), frozenset(ast.literal_eval(w))
        assert u in family and w in family
        assert (u | w if kind == "union" else u & w) not in family

    def test_unknown_points_witness_is_canonical(self):
        opens = frozenset(map(frozenset, ["", "ab", "ay", "aw", "ax", "az"]))
        with pytest.raises(InputError) as info:
            FiniteSpace(tuple("ab"), opens)
        assert str(info.value) == "open set ['a', 'w'] contains unknown points"

    def test_union_witness_is_canonical(self):
        opens = frozenset(map(frozenset, ["", "a", "b", "c", "d", "e", "abcdef"]))
        with pytest.raises(InputError) as info:
            FiniteSpace(tuple("abcdef"), opens)
        assert str(info.value) == "opens not closed under union: ['a'] | ['b']"

    def test_intersection_witness_when_minimal_open_is_missing(self):
        # U_b = {a, b} & {b, c} = {b} is not in the family
        opens = frozenset(map(frozenset, ["", "ab", "bc", "abc"]))
        with pytest.raises(InputError) as info:
            FiniteSpace(tuple("abc"), opens)
        assert str(info.value) == (
            "opens not closed under intersection: ['a', 'b'] & ['b', 'c']"
        )

    @given(families())
    @settings(max_examples=100, deadline=None)
    def test_specialization_preorder_matches_definition(self, case):
        points, family = case
        space = generate_topology(points, family)
        assert specialization_preorder(space) == {
            (x, y)
            for x in points
            for y in points
            if all(y in u for u in space.opens if x in u)
        }


class TestBounds:
    def test_generation_refused_while_the_closure_grows(self):
        # 2**17 opens; FiniteSpace would say "limit is", the closure "exceeds"
        points = [f"s{i:02d}" for i in range(17)]
        with pytest.raises(InputError, match="exceeds"):
            generate_topology(points, [{p} for p in points])

    def test_sixteen_point_discrete_space(self):
        space = discrete_space([f"p{i:02d}" for i in range(16)])
        assert len(space.opens) == 65536

    def test_sixteen_point_discrete_space_builds_without_its_opens(self):
        points = [f"p{i:02d}" for i in range(16)]
        start = time.perf_counter()
        space = discrete_space(points)
        assert time.perf_counter() - start < 0.05
        assert len(space.opens) == 65536

    def test_seventeen_point_discrete_space_refused(self):
        with pytest.raises(InputError):
            discrete_space([f"p{i:02d}" for i in range(17)])

    def test_seventeen_point_space_is_closed_under_union_once(self, monkeypatch):
        # the closure taken for the size guard is the one its opens name
        calls = []
        real = stratcalc.spaces._union_closure

        def counted(generators):
            calls.append(None)
            return real(generators)

        monkeypatch.setattr(stratcalc.spaces, "_union_closure", counted)
        points = [f"p{i:02d}" for i in range(17)]
        space = generate_topology(points, [points[i:] for i in range(17)])
        assert space.opens == {frozenset(points[i:]) for i in range(18)}
        assert len(space.opens_sorted()) == 18
        assert len(calls) == 1


class TestGenerateTopology:
    def test_single_generator(self):
        space = generate_topology(["a", "b"], [{"a"}])
        assert space.opens == {frozenset(), frozenset("a"), frozenset("ab")}

    def test_three_overlapping_intervals(self):
        points = ["a", "b", "c", "d"]
        basis = [{"a", "b"}, {"b", "c"}, {"c", "d"}]
        space = generate_topology(points, basis)
        expected = subbasis_normal_form(points, basis)
        assert space.opens == expected
        # frozen value of the oracle: nine opens in total
        assert sorted(map(sorted, space.opens)) == [
            [],
            ["a", "b"],
            ["a", "b", "c"],
            ["a", "b", "c", "d"],
            ["b"],
            ["b", "c"],
            ["b", "c", "d"],
            ["c"],
            ["c", "d"],
        ]

    def test_empty_basis_on_singleton(self):
        space = generate_topology(["a"], [])
        assert space.opens == {frozenset(), frozenset("a")}

    def test_unknown_point_rejected(self):
        with pytest.raises(InputError):
            generate_topology(["a"], [{"a", "z"}])

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.sets(st.sampled_from("abcdef"[:n]), min_size=1),
                    max_size=4,
                ),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_normal_form_oracle(self, case):
        n, basis = case
        points = list("abcdef"[:n])
        space = generate_topology(points, basis)
        assert space.opens == subbasis_normal_form(points, basis)

    @given(
        st.lists(st.sets(st.sampled_from("abcde"), min_size=1), max_size=4)
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, basis):
        space = generate_topology("abcde", basis)
        again = generate_topology(space.points, space.opens)
        assert again.opens == space.opens

    @given(families())
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_closure(self, case):
        points, basis = case
        assert generate_topology(points, basis).opens == pairwise_closure(points, basis)


class TestSpecZmod:
    def test_twelve(self):
        import sympy

        space = spec_zmod(12)
        oracle = sorted(f"p{p}" for p in sympy.primefactors(12))
        assert list(space.points) == oracle == ["p2", "p3"]
        assert len(space.opens) == 4  # discrete on two points

    def test_prime(self):
        space = spec_zmod(7)
        assert space.points == ("p7",)

    def test_one_gives_empty_space(self):
        space = spec_zmod(1)
        assert space.points == ()
        assert space.opens == {frozenset()}

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            spec_zmod(0)

    def test_bound_checked_before_factoring(self):
        assert spec_zmod(2**40).points == ("p2",)
        with pytest.raises(InputError, match="exceeds"):
            spec_zmod(2**61 - 1)


class TestAlexandroff:
    def brute_force_up_sets(self, poset):
        out = set()
        for subset in powerset(poset.elements):
            subset = frozenset(subset)
            if all(
                y in subset
                for x in subset
                for y in poset.elements
                if poset.le(x, y)
            ):
                out.add(subset)
        return out

    def test_chain(self):
        poset = Poset.generate(["a", "b"], [("a", "b")])
        space = alexandroff_from_poset(poset)
        assert space.opens == self.brute_force_up_sets(poset)
        assert space.opens == {frozenset(), frozenset("b"), frozenset("ab")}

    def test_antichain(self):
        poset = Poset.generate(["a", "b"], [])
        space = alexandroff_from_poset(poset)
        assert len(space.opens) == 4

    def test_two_disjoint_chains(self):
        poset = Poset.generate("abcd", [("a", "b"), ("d", "c")])
        space = alexandroff_from_poset(poset)
        assert space.opens == self.brute_force_up_sets(poset)
        assert len(space.opens) == 9

    def test_cycle_rejected(self):
        with pytest.raises(InputError):
            Poset.generate(["a", "b"], [("a", "b"), ("b", "a")])

    def test_missing_transitivity_rejected(self):
        rel = {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")}
        with pytest.raises(InputError):
            Poset(("a", "b", "c"), frozenset(rel))

    @given(relations())
    @settings(max_examples=200, deadline=None)
    def test_up_sets_match_brute_force(self, case):
        elements, pairs = case
        forward = [(a, b) for a, b in pairs if a < b]
        poset = Poset.generate(elements, forward)
        up_sets = poset.up_sets()
        assert set(up_sets) == self.brute_force_up_sets(poset)
        assert up_sets == sorted(up_sets, key=sorted)

    @given(relations())
    @settings(max_examples=300, deadline=None)
    def test_generate_matches_brute_force(self, case):
        elements, pairs = case
        closure = brute_force_order_closure(elements, pairs)
        if is_partial_order(elements, closure):
            assert Poset.generate(elements, pairs).leq == closure
        else:
            with pytest.raises(InputError):
                Poset.generate(elements, pairs)

    @given(relations(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_validation_matches_brute_force(self, case, data):
        elements, pairs = case
        rel = set(pairs)
        if data.draw(st.booleans()):
            # a closed order with one pair toggled: mostly near misses
            forward = [(a, b) for a, b in pairs if a < b]
            rel = brute_force_order_closure(elements, forward)
            rel ^= {data.draw(st.tuples(st.sampled_from(elements), st.sampled_from(elements)))}
        if is_partial_order(elements, rel):
            assert Poset(elements, frozenset(rel)).leq == rel
        else:
            with pytest.raises(InputError):
                Poset(elements, frozenset(rel))

    @given(partial_orders(), partial_orders(max_elements=4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_views_match_pair_definitions(self, case, target_case, data):
        elements, pairs = case
        rel = brute_force_order_closure(elements, pairs)
        strict = {(a, b) for a, b in rel if a != b}
        poset = Poset.generate(elements, pairs)
        assert poset.leq == rel
        assert poset.strict_pairs() == strict
        assert all(poset.le(a, b) == ((a, b) in rel) for a in elements for b in elements)
        assert poset.covers() == sorted(
            (a, b) for a, b in strict
            if not any((a, m) in strict and (m, b) in strict for m in elements)
        )
        from_pairs = Poset(elements, frozenset(rel))
        assert poset == from_pairs and hash(poset) == hash(from_pairs)

        assert poset.monotone_counterexample({e: e for e in elements}, poset) is None
        target_elements, target_pairs = target_case
        if not target_elements:
            return
        target_rel = brute_force_order_closure(target_elements, target_pairs)
        target = Poset.generate(target_elements, target_pairs)
        mapping = {e: data.draw(st.sampled_from(target_elements)) for e in elements}
        first = next(
            ((a, b) for a, b in sorted(rel) if (mapping[a], mapping[b]) not in target_rel),
            None,
        )
        assert poset.monotone_counterexample(mapping, target) == first
        assert poset.is_monotone(mapping, target) == (first is None)

    @given(discrete_covers())
    @settings(max_examples=200, deadline=None)
    def test_quotient_order_is_signature_inclusion(self, case):
        space, members = case
        quotient = quotient_poset(space, Cover(space, members))
        sig = {c.representative: c.signature for c in quotient.classes}
        assert quotient.poset.leq == {(a, b) for a in sig for b in sig if sig[a] <= sig[b]}

    def test_chain_covers_in_quadratic_time(self):
        elements = [f"p{i:03d}" for i in range(400)]
        poset = Poset.generate(elements, zip(elements, elements[1:]))
        start = time.perf_counter()
        covers = poset.covers()
        assert time.perf_counter() - start < 0.2
        assert covers == list(zip(elements, elements[1:]))

    def test_specialization_recovers_order(self):
        poset = Poset.generate("abcd", [("a", "b"), ("b", "c")])
        assert specialization_preorder(alexandroff_from_poset(poset)) == poset.leq


class TestMinimalOpens:
    @given(families())
    @settings(max_examples=100, deadline=None)
    def test_generated_space_equals_its_explicit_family(self, case):
        points, family = case
        space = generate_topology(points, family)
        explicit = FiniteSpace(points, space.opens)
        assert explicit == space
        assert hash(explicit) == hash(space)
        assert explicit.opens == space.opens

    @pytest.mark.parametrize(
        "minimal",
        [
            (0b10, 0b10),  # U_a = {b} misses a
            (0b011, 0b110, 0b100),  # b is in U_a, but U_b = {b, c} is not inside U_a
            (0b01, 0b110),  # U_b holds a bit past the last point
        ],
    )
    def test_masks_that_are_not_a_preorder_are_internal_errors(self, minimal):
        points = tuple("abc"[: len(minimal)])
        with pytest.raises(InternalInvariantError, match="not a preorder"):
            FiniteSpace._of_minimal(points, minimal)


@st.composite
def point_maps(draw):
    """Two spaces on at most 6 points and any map between them."""
    spaces = []
    for names in ("abcdef", "uvwxyz"):
        points = names[: draw(st.integers(min_value=1, max_value=6))]
        spaces.append(generate_topology(points, draw(st.lists(subsets_of(points), max_size=4))))
    dom, cod = spaces
    table = {p: draw(st.sampled_from(cod.points)) for p in dom.points}
    return PointMap(dom, cod, table)


class TestContinuityOnMinimalOpens:
    @given(point_maps())
    @settings(max_examples=300, deadline=None)
    def test_verdict_and_witness_match_the_preimages_of_every_open(self, m):
        failing = [
            (u, m.preimage(u)) for u in sorted_sets(m.codomain.opens)
            if m.preimage(u) not in m.domain.opens
        ]
        assert check_continuity(m) == (not failing)
        assert continuity_counterexample(m) == (failing[0] if failing else None)


class TestContinuity:
    def test_identity_continuous(self):
        space = generate_topology("abc", [{"a"}, {"b", "c"}])
        assert check_continuity(PointMap(space, space, {p: p for p in "abc"}))

    def test_constant_continuous(self):
        dom = discrete_space("ab")
        cod = generate_topology("xy", [{"x"}])
        assert check_continuity(PointMap(dom, cod, {"a": "x", "b": "x"}))

    def test_indiscrete_to_discrete_fails(self):
        dom = indiscrete_space("ab")
        cod = discrete_space("ab")
        m = PointMap(dom, cod, {"a": "a", "b": "b"})
        # direct preimage enumeration: {a} is open in the codomain but its
        # preimage {a} is not open in the indiscrete domain
        assert frozenset("a") in cod.opens
        assert frozenset("a") not in dom.opens
        assert not check_continuity(m)

    def test_map_validation(self):
        dom = discrete_space("ab")
        cod = discrete_space("xy")
        with pytest.raises(InputError):
            PointMap(dom, cod, {"a": "x"})
        with pytest.raises(InputError):
            PointMap(dom, cod, {"a": "x", "b": "z"})


def test_space_invariant_violations_rejected():
    with pytest.raises(InputError):
        # missing full set
        from stratcalc import FiniteSpace

        FiniteSpace(("a", "b"), frozenset({frozenset()}))
    with pytest.raises(InputError):
        from stratcalc import FiniteSpace

        # not closed under union
        FiniteSpace(
            ("a", "b", "c"),
            frozenset(
                {
                    frozenset(),
                    frozenset("a"),
                    frozenset("b"),
                    frozenset("abc"),
                }
            ),
        )


def test_random_suite():
    assert suite_spaces(Random("pytest-spaces"), 25) == 25
