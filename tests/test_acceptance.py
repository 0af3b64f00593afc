"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s or in
captured output on failure) and enforces the stated runtime budget.
"""

import time
from math import comb
from random import Random

import sympy

from stratcalc import (
    CONE_APEX,
    Cover,
    ExprFunction,
    PointMap,
    abelian,
    ce_oracle,
    check_square,
    closed_form_parametric,
    cone_coord,
    de_rham_complex,
    derive,
    discrete_space,
    exterior_derivative,
    heisenberg,
    induce_g,
    nth_derivative,
    parametric_spec,
    sl2,
    standard_stratification,
    stratum_preimage_formula,
)
from stratcalc.cones import gamma_round_trip_error
from stratcalc.derive import constant_action, identity_spec
from stratcalc.refine import (
    coarsening_from_refined,
    coarsening_surjection,
    representative_section,
)
from stratcalc.selftest import (
    rand_continuous_map,
    rand_cover,
    rand_form,
    rand_lie,
    rand_refinement_pair,
    rand_space,
    run_selftest,
)


def report(number, description, elapsed=None, budget=None):
    stamp = "" if elapsed is None else f" [{elapsed:.2f}s" + (
        f" < {budget:.0f}s]" if budget else "]"
    )
    print(f"criterion {number}: PASS  {description}{stamp}")


def w_instance():
    space = discrete_space("abcd")
    cover = Cover(space, (frozenset("ab"), frozenset("bc"), frozenset("cd")))
    return space, cover


def test_criterion_1_stratification_validity():
    start = time.time()
    rng = Random("acceptance-1")
    instances = [w_instance()]
    while len(instances) < 201:
        space = rand_space(rng, 10)
        instances.append((space, rand_cover(rng, space, 5)))
    for space, cover in instances:
        strat = standard_stratification(space, cover)  # verifies continuity
        assert set(strat.s.values()) == {
            c.representative for c in strat.quotient.classes
        }
        for cls in strat.quotient.classes:
            assert stratum_preimage_formula(strat, cls.representative) == cls.members
    elapsed = time.time() - start
    assert elapsed < 10
    report(1, f"standard map surjective+continuous, fiber formula exact on "
              f"{len(instances)} instances", elapsed, 10)


def test_criterion_2_degenerate_cover():
    rng = Random("acceptance-2")
    spaces = [w_instance()[0]] + [rand_space(rng, 10) for _ in range(50)]
    for space in spaces:
        strat = standard_stratification(space, Cover(space, (space.full,)))
        assert len(strat.quotient.classes) == 1
        assert strat.certificate.up_set_count == 2
    report(2, f"cover by the whole space gives a one-point poset on "
              f"{len(spaces)} spaces")


def test_criterion_3_refinement_coherence():
    start = time.time()
    rng = Random("acceptance-3")
    for _ in range(100):
        space = rand_space(rng, 8)
        pair = rand_refinement_pair(rng, space)
        surj = coarsening_surjection(pair)
        assert surj.monotone and surj.surjective
        section = representative_section(pair)
        for cls in surj.target.classes:
            assert surj(section.section(cls.representative)) == cls.representative
        cover = rand_cover(rng, space)
        limit_map = coarsening_from_refined(space, cover)
        assert limit_map.monotone and limit_map.surjective
    elapsed = time.time() - start
    assert elapsed < 10
    report(3, "coarsening surjections, section retraction, and limit "
              "terminality on 100 refinement pairs", elapsed, 10)


def test_criterion_4_induction_on_representatives():
    rng = Random("acceptance-4")
    for _ in range(50):
        space1 = rand_space(rng, 6)
        strat1 = standard_stratification(space1, rand_cover(rng, space1))
        space2 = rand_space(rng, 6)
        strat2 = standard_stratification(space2, rand_cover(rng, space2))
        f = rand_continuous_map(rng, space1, space2)
        result = induce_g(f, strat1, strat2)
        assert check_square(result.square).commutes
    # two points in one class: the square must break exactly off the
    # representative subspace
    space1 = discrete_space("ab")
    strat1 = standard_stratification(space1, Cover(space1, (space1.full,)))
    space2 = discrete_space("pq")
    strat2 = standard_stratification(
        space2, Cover(space2, (frozenset("p"), frozenset("q")))
    )
    f = PointMap(space1, space2, {"a": "p", "b": "q"})
    result = induce_g(f, strat1, strat2)
    assert check_square(result.square).commutes
    assert not result.commutes_everywhere
    assert result.full_witness == ("b", "p", "q")
    report(4, "induced squares commute on representatives (50 instances); "
              "constructed counterexample fails exactly at the other point")


def test_criterion_5_rescaling_round_trip():
    rng = Random("acceptance-5")
    worst = 0.0
    for _ in range(10_000):
        dim = rng.randint(1, 3)
        a = 10.0 ** rng.uniform(-3, 3)
        v = tuple(rng.uniform(-1, 1) for _ in range(dim))
        x = tuple(rng.uniform(-1, 1) for _ in range(dim))
        t = rng.uniform(0, 1)
        c = cone_coord(t, "z") if t > 0 else CONE_APEX
        worst = max(worst, gamma_round_trip_error(a, v, x, c))
    assert worst <= 1e-12
    report(5, f"rescaling round trip on 10^4 inputs, worst error {worst:.2e}")


def test_criterion_6_identity_derivative():
    rng = Random("acceptance-6")
    space = discrete_space(["z1", "z2"])
    worst = 0.0
    for _ in range(50):
        arity = rng.randint(1, 3)
        spec = identity_spec(arity, space)
        x = tuple(rng.uniform(-2, 2) for _ in range(arity))
        v = tuple(rng.uniform(-2, 2) for _ in range(arity))
        t = rng.uniform(0, 2)
        c = cone_coord(t, rng.choice(space.points)) if t > 0 else CONE_APEX
        rep = derive(spec, v, x, c)
        assert rep.derivable
        assert rep.residual < 1e-9
        assert max(abs(a - b) for a, b in zip(rep.value.w, v)) < 1e-9
        assert rep.value.cone == c
        worst = max(worst, rep.residual)
    report(6, f"identity derivative exact at 50 points, worst residual {worst:.1e}")


ACCEPTANCE_POOL = [
    ExprFunction(1, ("2*x1 + 1",)),
    ExprFunction(1, ("x1**2",)),
    ExprFunction(1, ("sin(x1)",)),
    ExprFunction(2, ("2*x1 - x2 + 1", "x1 + 3*x2")),
    ExprFunction(2, ("x1**2 + x2", "x1*x2")),
    ExprFunction(2, ("sin(x1) + cos(x2)", "sin(x2)")),
]


def test_criterion_7_closed_form_agreement():
    start = time.time()
    rng = Random("acceptance-7")
    space = discrete_space(["z1", "z2", "z3"])
    tables = [
        {p: p for p in space.points},
        {"z1": "z2", "z2": "z3", "z3": "z1"},
    ]
    total = 0
    worst = 0.0
    for k in ACCEPTANCE_POOL:
        for _ in range(17):
            from stratcalc.derive import Piece, PiecewiseConeAction

            cut = rng.uniform(0.4, 1.5)
            rho = PiecewiseConeAction(
                (
                    Piece(0.0, cut, rng.choice(tables)),
                    Piece(cut, None, rng.choice(tables)),
                )
            )
            spec = parametric_spec(k, rho, space, space)
            x = tuple(rng.uniform(-2, 2) for _ in range(k.arity))
            v = tuple(rng.uniform(-2, 2) for _ in range(k.arity))
            t = rng.uniform(0, 3)
            c = cone_coord(t, rng.choice(space.points)) if t > 0 else CONE_APEX
            got = derive(spec, v, x, c, tol=1e-6)
            assert got.derivable, got.failure
            want = closed_form_parametric(spec, v, x, c)
            gap = max(
                max(abs(a - b) for a, b in zip(got.value.w, want.w)),
                max(abs(a - b) for a, b in zip(got.value.fx, want.fx)),
            )
            assert gap <= 1e-6
            assert got.value.cone == want.cone  # exact, including the radius
            worst = max(worst, gap)
            total += 1
    elapsed = time.time() - start
    assert elapsed < 5
    report(7, f"numeric limit within 1e-6 of the analytic derivative on "
              f"{total} queries, worst gap {worst:.1e}", elapsed, 5)


def test_criterion_8_second_derivative():
    space = discrete_space(["z1"])
    action = constant_action({"z1": "z1"})
    square = parametric_spec(ExprFunction(1, ("x1**2",)), action, space, space)
    affine = parametric_spec(ExprFunction(1, ("2*x1 + 1",)), action, space, space)
    rng = Random("acceptance-8")
    for _ in range(5):
        x = (rng.uniform(-2, 2),)
        second = nth_derivative(square, 2, (1.0,), x, CONE_APEX)
        assert second.derivable
        assert abs(second.bilinear[0] - 2.0) < 1e-3
        second = nth_derivative(affine, 2, (1.0,), x, CONE_APEX)
        assert second.derivable
        assert abs(second.bilinear[0]) < 1e-6
    report(8, "second derivative of squaring is 2 within 1e-3, of affine "
              "maps 0 within 1e-6")


def _acceptance_corpus():
    rng = Random("acceptance-forms")
    corpus = [abelian(n) for n in range(1, 6)] + [heisenberg(), sl2()]
    corpus += [rand_lie(rng, 4) for _ in range(50)]
    return corpus


def test_criterion_9_differential_matches_oracle():
    rng = Random("acceptance-9")
    corpus = _acceptance_corpus()
    for g in corpus:
        for degree in range(g.dim + 1):
            omega = rand_form(rng, g.dim, degree)
            assert exterior_derivative(g, omega) == ce_oracle(g, omega)
    report(9, f"inductive differential equals the alternating-sum oracle "
              f"exactly on {len(corpus)} presentations, all degrees")


def test_criterion_10_complex_and_betti():
    start = time.time()

    def sympy_rank(matrix):
        if not matrix or not matrix[0]:
            return 0
        return sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row]
             for row in matrix]
        ).rank()

    corpus = _acceptance_corpus()
    for g in corpus:
        reportc = de_rham_complex(g)  # raises if d after d is nonzero
        dims = [comb(g.dim, k) for k in range(g.dim + 1)]
        for k, (mat, rank) in enumerate(zip(reportc.matrices, reportc.ranks)):
            assert rank == sympy_rank(mat)
        betti_oracle = tuple(
            (dims[k] - sympy_rank(reportc.matrices[k]))
            - (sympy_rank(reportc.matrices[k - 1]) if k else 0)
            for k in range(g.dim + 1)
        )
        assert reportc.betti == betti_oracle
    for n in range(1, 6):
        assert de_rham_complex(abelian(n)).betti == tuple(
            comb(n, k) for k in range(n + 1)
        )
    assert de_rham_complex(sl2()).betti == (1, 0, 0, 1)
    assert de_rham_complex(heisenberg()).betti[1] == 2
    elapsed = time.time() - start
    assert elapsed < 10
    report(10, f"d after d vanishes and Betti numbers match the independent "
               f"rank oracle on {len(corpus)} presentations", elapsed, 10)


def test_criterion_11_selftest_determinism():
    ok1, s1 = run_selftest(12345)
    ok2, s2 = run_selftest(12345)
    assert ok1 and ok2
    assert s1.encode() == s2.encode()
    ok3, s3 = run_selftest(54321)
    assert ok3
    assert s3 != s1  # different seed, different digest line
    report(11, "selftest summaries byte-identical for a fixed seed")
