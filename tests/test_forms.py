"""Presented Lie algebras, alternating forms, the differential, cohomology."""

from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from stratcalc import (
    InputError,
    InternalInvariantError,
    KForm,
    LieAlgebraPresentation,
    abelian,
    bracket,
    ce_oracle,
    d_one_form,
    de_rham_complex,
    exterior_derivative,
    heisenberg,
    interior_product,
    lie_derivative,
    sl2,
    validate_lie,
    wedge,
)
from stratcalc import forms
from stratcalc.forms import rational_rank
from stratcalc.selftest import _conjugate_constants, rand_form, rand_lie, suite_forms


def unit(dim, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


def sympy_rank(matrix):
    """Independent rank oracle on exact rationals."""
    if not matrix or not matrix[0]:
        return 0
    m = sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in matrix]
    )
    return m.rank()


class TestValidateLie:
    def test_abelian_valid(self):
        cert = validate_lie(abelian(3))
        assert cert.antisymmetry_checked == 27

    def test_sl2_valid(self):
        validate_lie(sl2())

    def test_antisymmetry_violation(self):
        c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2] = Fraction(1)
        c[1][0][2] = Fraction(1)  # should be -1
        g = LieAlgebraPresentation(3, ("e1", "e2", "e3"), tuple(
            tuple(tuple(r) for r in ci) for ci in c
        ))
        with pytest.raises(InputError) as err:
            validate_lie(g)
        assert "antisymmetry" in str(err.value)

    def test_jacobi_violation(self):
        # brackets [e1,e2] = e3 and [e3,e1] = e1 break the cyclic identity
        g = LieAlgebraPresentation.from_brackets(
            3, [(0, 1, (0, 0, 1)), (2, 0, (1, 0, 0))]
        )
        with pytest.raises(InputError) as err:
            validate_lie(g)
        assert "Jacobi" in str(err.value)


class TestBracket:
    def test_self_bracket_vanishes(self):
        g = sl2()
        x = (Fraction(1), Fraction(2), Fraction(-3))
        assert bracket(g, x, x) == (Fraction(0),) * 3

    def test_heisenberg_generator(self):
        g = heisenberg()
        assert bracket(g, unit(3, 0), unit(3, 1)) == (0, 0, 1)

    def test_abelian_always_zero(self):
        g = abelian(4)
        assert bracket(g, unit(4, 0), unit(4, 3)) == (0, 0, 0, 0)

    def test_bilinearity(self):
        g = sl2()
        x = (Fraction(2), Fraction(0), Fraction(1))
        y = (Fraction(0), Fraction(3), Fraction(0))
        z = (Fraction(1), Fraction(1), Fraction(1))
        left = bracket(g, x, tuple(a + b for a, b in zip(y, z)))
        right = tuple(
            a + b for a, b in zip(bracket(g, x, y), bracket(g, x, z))
        )
        assert left == right


class TestDOneForm:
    def test_heisenberg_center_dual(self):
        g = heisenberg()
        omega = KForm.basis_dual(3, (2,))  # dual of the central field
        d = d_one_form(g, omega)
        assert d.coeffs[(0, 1)] == -1
        assert d.coeffs[(0, 2)] == 0
        assert d.coeffs[(1, 2)] == 0

    def test_abelian_kills_everything(self):
        g = abelian(3)
        omega = KForm(3, 1, {(0,): 2, (1,): -1, (2,): 5})
        assert d_one_form(g, omega).is_zero()

    def test_sl2_h_dual(self):
        g = sl2()  # basis order h, e, f
        omega = KForm.basis_dual(3, (0,))
        d = d_one_form(g, omega)
        assert d.coeffs[(1, 2)] == -1  # minus the value on [e, f] = h
        assert d.coeffs[(0, 1)] == 0
        assert d.coeffs[(0, 2)] == 0

    def test_degree_checked(self):
        with pytest.raises(InputError):
            d_one_form(sl2(), KForm.zero(3, 2))


class TestLieDerivative:
    def test_abelian_vanishes(self):
        g = abelian(3)
        omega = KForm(3, 2, {(0, 1): 3, (0, 2): -2, (1, 2): 7})
        assert lie_derivative(g, unit(3, 0), omega).is_zero()

    def test_heisenberg_moves_center_dual(self):
        g = heisenberg()
        omega = KForm.basis_dual(3, (2,))
        out = lie_derivative(g, unit(3, 0), omega)
        # the only surviving term is minus the value on [e1, e2] = e3
        assert out.coeffs[(1,)] == -1
        assert out.coeffs[(0,)] == 0
        assert out.coeffs[(2,)] == 0

    def test_linear_in_the_form(self):
        rng = Random("lie-linear")
        g = sl2()
        for _ in range(10):
            w1, w2 = rand_form(rng, 3, 2), rand_form(rng, 3, 2)
            field = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            combined = lie_derivative(g, field, w1.plus(w2.scaled(3)))
            split = lie_derivative(g, field, w1).plus(
                lie_derivative(g, field, w2).scaled(3)
            )
            assert combined == split


class TestInteriorProduct:
    def test_double_contraction_vanishes(self):
        rng = Random("interior")
        for _ in range(10):
            omega = rand_form(rng, 4, 3)
            field = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
            once = interior_product(field, omega)
            twice = interior_product(field, once)
            assert twice.is_zero()

    def test_wedge_pair_contraction(self):
        omega = wedge(KForm.basis_dual(3, (0,)), KForm.basis_dual(3, (1,)))
        out = interior_product(unit(3, 0), omega)
        assert out == KForm.basis_dual(3, (1,))

    def test_linear_in_the_field(self):
        omega = wedge(KForm.basis_dual(3, (0,)), KForm.basis_dual(3, (2,)))
        x = (Fraction(2), Fraction(1), Fraction(0))
        y = (Fraction(0), Fraction(0), Fraction(5))
        both = interior_product(tuple(a + b for a, b in zip(x, y)), omega)
        split = interior_product(x, omega).plus(interior_product(y, omega))
        assert both == split

    def test_zero_form_rejected(self):
        with pytest.raises(InputError):
            interior_product(unit(2, 0), KForm.zero(2, 0))


class TestWedge:
    def test_graded_antisymmetry(self):
        a = KForm.basis_dual(3, (0,))
        b = KForm.basis_dual(3, (1,))
        assert wedge(a, b) == wedge(b, a).scaled(-1)

    def test_associativity(self):
        a = KForm.basis_dual(4, (0,))
        b = KForm.basis_dual(4, (1,))
        c = KForm.basis_dual(4, (2,))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_zero_absorbs(self):
        a = KForm.basis_dual(3, (0,))
        assert wedge(a, KForm.zero(3, 1)).is_zero()

    def test_overflow_truncates_to_zero_top_form(self):
        a = KForm.basis_dual(2, (0, 1))
        b = KForm.basis_dual(2, (0,))
        out = wedge(a, b)
        assert out.degree == 2 and out.is_zero()

    def test_dual_basis_normalization(self):
        out = wedge(KForm.basis_dual(3, (0,)), KForm.basis_dual(3, (1,)))
        assert out.on_basis((0, 1)) == 1
        assert out.on_basis((1, 0)) == -1


class TestExteriorDerivative:
    def test_matches_one_form_rule(self):
        g = heisenberg()
        omega = KForm.basis_dual(3, (2,))
        d = exterior_derivative(g, omega)
        expected = wedge(
            KForm.basis_dual(3, (0,)), KForm.basis_dual(3, (1,))
        ).scaled(-1)
        assert d == expected
        assert d == d_one_form(g, omega)

    def test_top_degree_dies(self):
        g = sl2()
        top = KForm.basis_dual(3, (0, 1, 2))
        assert exterior_derivative(g, top).is_zero()

    def test_degree_zero_dies(self):
        g = sl2()
        const = KForm(3, 0, {(): 5})
        assert exterior_derivative(g, const).is_zero()

    def test_sl2_two_form_matches_oracle(self):
        g = sl2()
        omega = wedge(KForm.basis_dual(3, (1,)), KForm.basis_dual(3, (2,)))
        assert exterior_derivative(g, omega) == ce_oracle(g, omega)

    def test_oracle_agreement_random(self):
        rng = Random("forms-oracle")
        for _ in range(25):
            g = rand_lie(rng)
            for degree in range(g.dim + 1):
                omega = rand_form(rng, g.dim, degree)
                assert exterior_derivative(g, omega) == ce_oracle(g, omega)

    def test_oracle_on_abelian(self):
        g = abelian(4)
        rng = Random("abelian-oracle")
        for degree in range(5):
            omega = rand_form(rng, 4, degree)
            assert ce_oracle(g, omega).is_zero()
            assert exterior_derivative(g, omega).is_zero()


class TestComplex:
    def test_abelian_betti_are_binomials(self):
        for n in range(1, 6):
            report = de_rham_complex(abelian(n))
            assert report.betti == tuple(comb(n, k) for k in range(n + 1))
            assert all(r == 0 for r in report.ranks)

    def test_sl2_betti(self):
        report = de_rham_complex(sl2())
        assert report.betti == (1, 0, 0, 1)

    def test_heisenberg_first_betti(self):
        report = de_rham_complex(heisenberg())
        assert report.betti[1] == 2
        assert report.betti == (1, 2, 2, 1)

    def test_ranks_match_independent_oracle(self):
        rng = Random("rank-oracle")
        for _ in range(20):
            g = rand_lie(rng)
            report = de_rham_complex(g)
            for mat, rank in zip(report.matrices, report.ranks):
                assert rank == sympy_rank(mat)

    def test_euler_characteristic_vanishes(self):
        for g in (abelian(2), heisenberg(), sl2(), abelian(5)):
            assert de_rham_complex(g).euler_characteristic == 0

    def test_rejects_invalid_presentation(self):
        g = LieAlgebraPresentation.from_brackets(
            3, [(0, 1, (0, 0, 1)), (2, 0, (1, 0, 0))]
        )
        with pytest.raises(InputError):
            de_rham_complex(g)


class TestRationalRank:
    def test_against_sympy_on_random_matrices(self):
        rng = Random("rat-rank")
        for _ in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            mat = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
            assert rational_rank(mat) == sympy_rank(mat)

    def test_degenerate_shapes(self):
        assert rational_rank([]) == 0
        assert rational_rank([[]]) == 0

    def test_rank_deficient_products(self):
        # A product of m x r and r x n factors has rank at most r, so the
        # elimination must skip pivotless columns and drop zero rows.
        rng = Random("rank-deficient")
        for _ in range(15):
            m, r, n = rng.randint(3, 9), rng.randint(1, 4), rng.randint(3, 9)
            left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(r)]
                    for _ in range(m)]
            right = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
            mat = [
                [sum((a * right[t][j] for t, a in enumerate(row)), Fraction(0))
                 for j in range(n)]
                for row in left
            ]
            assert rational_rank(mat) == sympy_rank(mat)


# ---------------------------------------------------------------- Cartan build


def _direct_sum(*algebras):
    n = sum(g.dim for g in algebras)
    brackets, offset = [], 0
    for g in algebras:
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                coeffs = [Fraction(0)] * n
                coeffs[offset:offset + g.dim] = g.c[i][j]
                brackets.append((offset + i, offset + j, coeffs))
        offset += g.dim
    return LieAlgebraPresentation.from_brackets(n, brackets)


def _sheared(g, shears):
    """g in the basis changed by row_a += lam * row_b for each shear."""
    n = g.dim
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pinv = [row[:] for row in p]
    for a, b, lam in shears:
        a, b = a % n, b % n
        if a == b:
            continue
        for j in range(n):
            p[a][j] += lam * p[b][j]
        for i in range(n):
            pinv[i][b] -= lam * pinv[i][a]
    return _conjugate_constants(g, p, pinv)


_shears = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)), max_size=6
)


@st.composite
def _algebras(draw):
    """Almost-abelian algebras of dimension 2-6 with a random diagonal
    action of the first field, and sl2 + heisenberg; both conjugated."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        brackets = []
        for j in range(1, n):
            coeffs = [Fraction(0)] * n
            coeffs[j] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            brackets.append((0, j, coeffs))
        g = LieAlgebraPresentation.from_brackets(n, brackets)
    else:
        g = _direct_sum(sl2(), heisenberg())
    return _sheared(g, draw(_shears))


class TestCartanBuild:
    @given(_algebras(), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_columns_and_forms_match_oracle(self, g, seed):
        report = de_rham_complex(g)
        n = g.dim
        for k, mat in enumerate(report.matrices):
            rows = list(combinations(range(n), k + 1))
            for col, c in enumerate(combinations(range(n), k)):
                image = ce_oracle(g, KForm.basis_dual(n, c))
                if k == n:
                    assert mat == () and image.is_zero()
                else:
                    assert [r[col] for r in mat] == [image.coeffs[row] for row in rows]
        rng = Random(seed)
        for degree in range(n + 1):
            omega = rand_form(rng, n, degree)
            assert exterior_derivative(g, omega) == ce_oracle(g, omega)

    @pytest.mark.parametrize("field, column, key", [
        (0, (0,), (0,)),  # contraction with e_0 can never reach a tuple holding 0
        (0, (1,), (1,)),  # lands in D_1 at (0, 1); contraction with e_1 sees it
        (0, (0, 1, 2), (0, 1, 2)),  # the top-degree right side must vanish
    ])
    def test_corrupted_lie_entry_is_caught(self, monkeypatch, field, column, key):
        real = forms._lie_column

        def corrupted(table, j, c):
            out = real(table, j, c)
            if (j, c) == (field, column):
                out[key] = out.get(key, 0) + 1
            return out

        monkeypatch.setattr(forms, "_lie_column", corrupted)
        with pytest.raises(InternalInvariantError) as err:
            de_rham_complex(sl2())
        assert "Cartan" in str(err.value)
        with pytest.raises(InternalInvariantError):
            exterior_derivative(sl2(), KForm.basis_dual(3, column))

    def test_corrupted_differential_trips_d_squared(self, monkeypatch):
        real = forms._cartan_differentials

        def corrupted(g, top):
            den, differentials = real(g, top)
            differentials[0][()] = {(2,): 1}  # D_0 sends 1 to e^3, and D_1 e^3 = -e^12
            return den, differentials

        monkeypatch.setattr(forms, "_cartan_differentials", corrupted)
        with pytest.raises(InternalInvariantError) as err:
            de_rham_complex(heisenberg())
        assert "composite of differentials in degrees 0 and 1" in str(err.value)



def _dense_jacobi_failure(g):
    """The message of the first failing Jacobi sum over all (i, j, k, l)
    in lexicographic order, zero constants included; None if none fails."""
    n = g.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total = sum(
                        g.c[i][j][m] * g.c[m][k][l]
                        + g.c[j][k][m] * g.c[m][i][l]
                        + g.c[k][i][m] * g.c[m][j][l]
                        for m in range(n)
                    )
                    if total != 0:
                        return (
                            f"Jacobi identity fails on basis triple "
                            f"({i}, {j}, {k}) at component {l}: sum {Fraction(total)}"
                        )
    return None


class TestJacobiWitness:
    @given(
        _algebras(),
        st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
        st.fractions(-3, 3, max_denominator=4).filter(bool),
    )
    @settings(max_examples=60, deadline=None)
    def test_perturbed_constant_names_the_dense_witness(self, g, i, j, l, delta):
        n = g.dim
        i, j, l = i % n, j % n, l % n
        if i == j:
            j = (i + 1) % n
        brackets = []
        for a in range(n):
            for b in range(a + 1, n):
                coeffs = list(g.c[a][b])
                if (a, b) in ((i, j), (j, i)):
                    coeffs[l] += delta if (a, b) == (i, j) else -delta
                brackets.append((a, b, coeffs))
        perturbed = LieAlgebraPresentation.from_brackets(n, brackets)
        expected = _dense_jacobi_failure(perturbed)
        if expected is None:
            cert = validate_lie(perturbed)
            assert (cert.antisymmetry_checked, cert.jacobi_checked) == (n**3, n**3)
        else:
            with pytest.raises(InputError) as err:
                validate_lie(perturbed)
            assert str(err.value) == expected

    def test_valid_algebras_pass_with_full_counts(self):
        for g in (abelian(10), sl2(), heisenberg(), _direct_sum(sl2(), heisenberg())):
            assert _dense_jacobi_failure(g) is None
            cert = validate_lie(g)
            assert (cert.antisymmetry_checked, cert.jacobi_checked) == (g.dim**3,) * 2

def test_random_suite():
    assert suite_forms(Random("pytest-forms"), 8) == 11
