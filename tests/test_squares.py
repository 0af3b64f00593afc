"""Stratified map squares: certification and the two induction routes."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratcalc import (
    Cover,
    FiniteSpace,
    InputError,
    PointMap,
    StructuralError,
    ValidationError,
    alt_induce_g,
    check_square,
    choose_representatives,
    discrete_space,
    generate_topology,
    identity_map,
    induce_g,
    indiscrete_space,
    standard_stratification,
)
from stratcalc.selftest import suite_squares
from stratcalc.squares import StratifiedMapSquare


def w_space():
    return discrete_space("abcd")


def w_strat():
    space = w_space()
    return standard_stratification(
        space, Cover(space, (frozenset("ab"), frozenset("bc"), frozenset("cd")))
    )


class TestChooseRepresentatives:
    def test_running_example(self):
        sub = choose_representatives(w_strat())
        assert sub.reps == ("a", "b", "c", "d")

    def test_trivial_cover(self):
        space = w_space()
        strat = standard_stratification(space, Cover(space, (space.full,)))
        sub = choose_representatives(strat)
        assert sub.reps == ("a",)
        # subspace topology of the single representative
        assert sub.topology.opens == {frozenset(), frozenset("a")}

    def test_two_classes(self):
        space = discrete_space("ab")
        strat = standard_stratification(
            space, Cover(space, (space.full, frozenset("a")))
        )
        assert choose_representatives(strat).reps == ("a", "b")

    def test_override(self):
        space = w_space()
        strat = standard_stratification(space, Cover(space, (frozenset("ab"), frozenset("cd"))))
        sub = choose_representatives(strat, ("b", "d"))
        assert sub.reps == ("b", "d")
        with pytest.raises(InputError):
            choose_representatives(strat, ("a", "b"))  # both in the same class
        with pytest.raises(InputError):
            choose_representatives(strat, ("a",))


    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_subspace_is_the_cut_down_family(self, data):
        points = "abcdef"[: data.draw(st.integers(min_value=1, max_value=6))]
        subsets = st.frozensets(st.sampled_from(points))
        space = generate_topology(points, data.draw(st.lists(subsets, max_size=4)))
        opens = [u for u in space.opens_sorted() if u]
        members = data.draw(st.lists(st.sampled_from(opens), min_size=1, max_size=5))
        if frozenset().union(*members) != space.full:
            members.append(space.full)
        strat = standard_stratification(space, Cover(space, tuple(members)))
        reps = tuple(
            data.draw(st.sampled_from(sorted(c.members))) for c in strat.quotient.classes
        )
        sub = choose_representatives(strat, reps)
        rset = frozenset(reps)
        expected = FiniteSpace(reps, {u & rset for u in strat.second_topology.opens})
        assert sub.topology == expected
        assert sub.topology.opens == expected.opens

    def test_generated_topology_is_never_listed(self):
        space = w_space()
        strat = standard_stratification(
            space, Cover(space, (frozenset("ab"), frozenset("bc"), frozenset("cd")))
        )
        induce_g(identity_map(space), strat, strat)
        assert "opens" not in vars(strat.second_topology)


class TestCheckSquare:
    def test_identity_square(self):
        strat = w_strat()
        square = StratifiedMapSquare(
            PointMap(strat.second_topology, strat.second_topology,
                     {p: p for p in "abcd"}),
            {c.representative: c.representative for c in strat.quotient.classes},
            strat,
            strat,
            strat.space.points,
            "full",
        )
        cert = check_square(square)
        assert cert.commutes and cert.f_continuous and cert.g_monotone
        assert len(cert.witnesses) == 4

    def test_constant_square(self):
        strat = w_strat()
        square = StratifiedMapSquare(
            PointMap(strat.second_topology, strat.second_topology,
                     {p: "b" for p in "abcd"}),
            {c.representative: "b" for c in strat.quotient.classes},
            strat,
            strat,
            strat.space.points,
            "full",
        )
        cert = check_square(square)
        assert cert.commutes and cert.f_continuous and cert.g_monotone

    def test_commutativity_failure_raises_with_witness(self):
        strat = w_strat()
        bottom = {c.representative: c.representative for c in strat.quotient.classes}
        bottom["a"] = "b"  # breaks at the point a
        square = StratifiedMapSquare(
            PointMap(strat.second_topology, strat.second_topology,
                     {p: p for p in "abcd"}),
            bottom,
            strat,
            strat,
            strat.space.points,
            "full",
        )
        with pytest.raises(ValidationError) as err:
            check_square(square)
        assert err.value.witness[0] == "a"
        cert = check_square(square, strict=False)
        assert not cert.commutes and cert.counterexample[0] == "a"


class TestInduceG:
    def test_representative_identity_square(self):
        # partition cover: classes {a, b} and {c, d}, representatives a, c;
        # the codomain is the representative set with the discrete topology
        # stratified by its singleton cover, so the induced class map is
        # the identity on representatives
        space = w_space()
        strat1 = standard_stratification(
            space, Cover(space, (frozenset("ab"), frozenset("cd")))
        )
        reps = discrete_space("ac")
        strat2 = standard_stratification(
            reps, Cover(reps, (frozenset("a"), frozenset("c")))
        )
        f = PointMap(space, reps, {"a": "a", "b": "a", "c": "c", "d": "c"})
        result = induce_g(f, strat1, strat2)
        assert result.square.bottom == {"a": "a", "c": "c"}
        cert = check_square(result.square)
        assert cert.commutes and cert.f_continuous and cert.g_monotone

    def test_commutativity_fails_off_representatives(self):
        # one class upstairs, two downstairs: the induced map can only see
        # the representative, so the square breaks at the other point
        space1 = discrete_space("ab")
        strat1 = standard_stratification(space1, Cover(space1, (space1.full,)))
        space2 = discrete_space("pq")
        strat2 = standard_stratification(
            space2, Cover(space2, (frozenset("p"), frozenset("q")))
        )
        f = PointMap(space1, space2, {"a": "p", "b": "q"})
        result = induce_g(f, strat1, strat2)
        assert result.square.bottom == {"a": "p"}
        assert not result.commutes_everywhere
        assert result.full_witness == ("b", "p", "q")
        assert check_square(result.square).commutes  # on the declared domain

    def test_identity_data_gives_identity_class_map(self):
        strat = w_strat()
        result = induce_g(identity_map(strat.space), strat, strat)
        assert result.square.bottom == {c: c for c in "abcd"}
        assert result.commutes_everywhere

    def test_fiber_constant_extends(self):
        space = w_space()
        strat1 = standard_stratification(
            space, Cover(space, (frozenset("ab"), frozenset("cd")))
        )
        strat2 = w_strat()
        f = PointMap(space, space, {"a": "b", "b": "b", "c": "d", "d": "d"})
        result = induce_g(f, strat1, strat2)
        assert result.commutes_everywhere

    def test_discontinuous_map_rejected(self):
        dom = indiscrete_space("ab")
        strat1 = standard_stratification(dom, Cover(dom, (dom.full,)))
        cod = discrete_space("pq")
        strat2 = standard_stratification(
            cod, Cover(cod, (frozenset("p"), frozenset("q")))
        )
        f = PointMap(dom, cod, {"a": "p", "b": "q"})
        with pytest.raises(StructuralError):
            induce_g(f, strat1, strat2)


class TestAltInduceG:
    def test_constant_target(self):
        space2 = w_space()
        strat2 = standard_stratification(space2, Cover(space2, (space2.full,)))
        dom = discrete_space("xy")
        f = PointMap(dom, space2, {"x": "a", "y": "d"})
        result = alt_induce_g(f, strat2)
        assert set(result.square.bottom.values()) == {"a"}
        assert result.commutes_everywhere

    def test_identity_map_gives_s(self):
        strat = w_strat()
        result = alt_induce_g(identity_map(strat.space), strat)
        assert result.square.bottom == {p: strat.s[p] for p in "abcd"}

    def test_running_example_map(self):
        strat2 = w_strat()
        f = PointMap(
            strat2.space, strat2.space, {"a": "b", "b": "b", "c": "c", "d": "c"}
        )
        result = alt_induce_g(f, strat2)
        assert result.square.bottom == {"a": "b", "b": "b", "c": "c", "d": "c"}
        assert result.commutes_everywhere
        # the discrete specialization order is an antichain, so any bottom
        # map is monotone
        assert result.g_monotone

    def test_non_t0_domain_rejected(self):
        strat2 = w_strat()
        dom = indiscrete_space("xy")
        f = PointMap(dom, strat2.space, {"x": "a", "y": "a"})
        with pytest.raises(StructuralError):
            alt_induce_g(f, strat2)


def test_random_suite():
    assert suite_squares(Random("pytest-squares"), 25) == 25
