"""Constant-coefficient alternating forms on a presented Lie algebra and
their cochain complex, in exact rational arithmetic.

The vector-field space is given by structure constants; antisymmetry
and the Jacobi identity are validated exactly. Forms of degree k are
alternating maps with one rational coefficient per strictly increasing
k-tuple of basis indices. With constant coefficients every derivation
term of the classical formulas vanishes, so the Lie derivative along a
basis field and the contraction with it are sparse signed maps on the
increasing tuples, and the differential is pinned down degree by degree
by the Cartan identity

    interior(X, d w) = lie(X, w) - d(interior(X, w))

required for every basis field X. The build goes up one degree at a
time: the column of D_k at a basis form is read off the identity for
its first row index, from the Lie map and the already built columns of
D_{k-1}, and every other contraction, the top degree included, is
checked against its right side. The structure constants are cleared to
integers once, so the build, the exact d after d check (a sparse
product over nonzeros) and the ranks (fraction-free Bareiss
elimination) run on ints. An independent alternating-sum differential,
sharing only the bracket with the build, guards it in the tests and the
selftest.

No floating point enters this module.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import InputError, InternalInvariantError

Rat = Fraction


def _fr(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise InputError(f"expected exact rational, got {value!r}")


@dataclass(frozen=True)
class LieAlgebraPresentation:
    """Structure constants c[i][j][k] with bracket of basis i, j equal to
    the k-sum of c[i][j][k] times basis k."""

    dim: int
    basis: tuple[str, ...]
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise InputError("dimension must be at least 1")
        if len(self.basis) != n or len(set(self.basis)) != n:
            raise InputError("basis names must be distinct and match the dimension")
        c = self.c
        if len(c) != n or any(len(ci) != n for ci in c) or any(
            len(cij) != n for ci in c for cij in ci
        ):
            raise InputError("structure constants must form an n x n x n array")
        object.__setattr__(
            self,
            "c",
            tuple(
                tuple(tuple(_fr(v) for v in cij) for cij in ci) for ci in c
            ),
        )

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Iterable[tuple[int, int, Sequence]],
        basis: tuple[str, ...] | None = None,
    ) -> "LieAlgebraPresentation":
        """Build the tensor from sparse (i, j, coefficients) triples.

        The (j, i) entry is filled with the negated coefficients; giving
        both orientations is allowed when they are consistent.
        """
        names = basis if basis is not None else tuple(f"e{i+1}" for i in range(dim))
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        seen = {}
        for i, j, coeffs in brackets:
            if not (0 <= i < dim and 0 <= j < dim):
                raise InputError(f"bracket indices ({i}, {j}) out of range")
            coeffs = tuple(_fr(v) for v in coeffs)
            if len(coeffs) != dim:
                raise InputError(
                    f"bracket ({i}, {j}) needs {dim} coefficients, got {len(coeffs)}"
                )
            if (i, j) in seen and seen[(i, j)] != coeffs:
                raise InputError(f"conflicting entries for bracket ({i}, {j})")
            seen[(i, j)] = coeffs
            neg = tuple(-v for v in coeffs)
            if (j, i) in seen and seen[(j, i)] != neg:
                raise InputError(f"brackets ({i},{j}) and ({j},{i}) disagree")
            seen[(j, i)] = neg
            c[i][j] = list(coeffs)
            c[j][i] = list(neg)
        return cls(dim, names, tuple(tuple(tuple(r) for r in ci) for ci in c))


@dataclass(frozen=True)
class LieCertificate:
    antisymmetry_checked: int
    jacobi_checked: int


def validate_lie(g: LieAlgebraPresentation) -> LieCertificate:
    """Exact antisymmetry and Jacobi checks; raises naming the offender."""
    n = g.dim
    anti = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if g.c[i][j][k] != -g.c[j][i][k]:
                    raise InputError(
                        f"antisymmetry fails at c[{i}][{j}][{k}] = {g.c[i][j][k]} "
                        f"vs c[{j}][{i}][{k}] = {g.c[j][i][k]}"
                    )
                anti += 1
    # The Jacobi sum at (i, j, k, l) is t(i, j, k, l) + t(j, k, i, l) +
    # t(k, i, j, l) with t(i, j, k, l) = sum over m of c[i][j][m] c[m][k][l];
    # t is summed over nonzero constants only, and a sum can be nonzero
    # only at a cyclic rotation of a key of t.
    nonzero = [[[(l, x) for l, x in enumerate(cij) if x] for cij in ci] for ci in g.c]
    t: dict[tuple[int, int, int, int], Fraction] = {}
    for i in range(n):
        for j in range(n):
            for m, x in nonzero[i][j]:
                for k in range(n):
                    for l, y in nonzero[m][k]:
                        t[i, j, k, l] = t.get((i, j, k, l), 0) + x * y

    def jacobi_sum(i, j, k, l):
        return t.get((i, j, k, l), 0) + t.get((j, k, i, l), 0) + t.get((k, i, j, l), 0)

    failing = [
        key
        for i, j, k, l in t
        for key in ((i, j, k, l), (k, i, j, l), (j, k, i, l))
        if jacobi_sum(*key) != 0
    ]
    if failing:
        i, j, k, l = min(failing)
        raise InputError(
            f"Jacobi identity fails on basis triple "
            f"({i}, {j}, {k}) at component {l}: sum {jacobi_sum(i, j, k, l)}"
        )
    return LieCertificate(anti, n**3)


def bracket(g: LieAlgebraPresentation, xv: Sequence, yv: Sequence) -> tuple[Fraction, ...]:
    """Bilinear extension of the structure constants to coefficient vectors."""
    xv = tuple(_fr(t) for t in xv)
    yv = tuple(_fr(t) for t in yv)
    n = g.dim
    if len(xv) != n or len(yv) != n:
        raise InputError(f"coefficient vectors must have length {n}")
    out = [Fraction(0)] * n
    for i in range(n):
        if xv[i] == 0:
            continue
        for j in range(n):
            if yv[j] == 0:
                continue
            for l in range(n):
                out[l] += xv[i] * yv[j] * g.c[i][j][l]
    return tuple(out)


def _sort_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sorted tuple and permutation sign; sign 0 on repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return tuple(sorted(idx)), 0
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return tuple(idx), sign


@dataclass(frozen=True)
class KForm:
    """Alternating k-linear map with one coefficient per increasing tuple."""

    dim: int
    degree: int
    coeffs: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self):
        if not 0 <= self.degree <= self.dim:
            raise InputError(
                f"degree {self.degree} out of range for dimension {self.dim}"
            )
        expected = set(combinations(range(self.dim), self.degree))
        table = {}
        for key, value in self.coeffs.items():
            key = tuple(key)
            if key not in expected:
                raise InputError(f"index tuple {key} is not strictly increasing")
            table[key] = _fr(value)
        for key in expected:
            table.setdefault(key, Fraction(0))
        object.__setattr__(self, "coeffs", table)

    @classmethod
    def zero(cls, dim: int, degree: int) -> "KForm":
        return cls(dim, degree, {})

    @classmethod
    def basis_dual(cls, dim: int, indices: Sequence[int]) -> "KForm":
        key = tuple(indices)
        return cls(dim, len(key), {key: Fraction(1)})

    def on_basis(self, indices: Sequence[int]) -> Fraction:
        """Value on basis fields in any order, via the permutation sign."""
        if len(indices) != self.degree:
            raise InputError(
                f"degree-{self.degree} form applied to {len(indices)} fields"
            )
        key, sign = _sort_sign(indices)
        if sign == 0:
            return Fraction(0)
        return sign * self.coeffs[key]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs.values())

    def scaled(self, factor) -> "KForm":
        factor = _fr(factor)
        return KForm(
            self.dim, self.degree,
            {k: factor * v for k, v in self.coeffs.items()},
        )

    def plus(self, other: "KForm") -> "KForm":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise InputError("form mismatch in addition")
        return KForm(
            self.dim, self.degree,
            {k: v + other.coeffs[k] for k, v in self.coeffs.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, KForm)
            and self.dim == other.dim
            and self.degree == other.degree
            and all(self.coeffs[k] == other.coeffs[k] for k in self.coeffs)
        )


def _lie_table(c) -> list:
    """Lie derivatives of the dual basis 1-forms: entry [j][m] lists the
    pairs (i, -c[j][i][m]) with a nonzero constant, since
    lie(e_j, e^m) = -sum_i c[j][i][m] e^i on constant coefficients."""
    n = len(c)
    return [
        [[(i, -c[j][i][m]) for i in range(n) if c[j][i][m]] for m in range(n)]
        for j in range(n)
    ]


def _lie_column(table, j: int, c: tuple[int, ...]) -> dict:
    """lie(e_j, e^c) as {increasing tuple: coefficient}.

    The Lie derivative is a derivation, so it replaces one factor e^m of
    e^c at a time by lie(e_j, e^m); moving the new index from slot s to
    its sorted place p among the other factors costs (-1)^(s+p), and a
    repeated index gives nothing.
    """
    out = {}
    for s, m in enumerate(c):
        rest = c[:s] + c[s + 1:]
        for i, v in table[j][m]:
            if i in rest:
                continue
            p = bisect_left(rest, i)
            key = rest[:p] + (i,) + rest[p:]
            out[key] = out.get(key, 0) + (-v if (s + p) % 2 else v)
    return out


def _contractions(c: tuple[int, ...]) -> list:
    """Triples (j, sign, rest) with interior(e_j, e^c) = sign * e^rest for
    each j in c; contraction with any other basis field vanishes."""
    return [(j, -1 if p % 2 else 1, c[:p] + c[p + 1:]) for p, j in enumerate(c)]


def lie_derivative(g: LieAlgebraPresentation, field: Sequence, omega: KForm) -> KForm:
    """Lie derivative along a field; the leading derivation term vanishes
    on constant coefficients, leaving minus the sum over slots of the
    form with the bracket substituted."""
    field = tuple(_fr(t) for t in field)
    if len(field) != g.dim or omega.dim != g.dim:
        raise InputError("field or form does not match the algebra dimension")
    table = _lie_table(g.c)
    coeffs = {}
    for j, x in enumerate(field):
        if x == 0:
            continue
        for c, w in omega.coeffs.items():
            if w == 0:
                continue
            for key, v in _lie_column(table, j, c).items():
                coeffs[key] = coeffs.get(key, 0) + x * w * v
    return KForm(g.dim, omega.degree, coeffs)


def interior_product(field: Sequence, omega: KForm) -> KForm:
    """Contraction in the first slot."""
    if omega.degree < 1:
        raise InputError("cannot contract a 0-form")
    field = tuple(_fr(t) for t in field)
    if len(field) != omega.dim:
        raise InputError("field does not match the form dimension")
    coeffs = {}
    for c, w in omega.coeffs.items():
        if w == 0:
            continue
        for j, sign, rest in _contractions(c):
            coeffs[rest] = coeffs.get(rest, 0) + sign * field[j] * w
    return KForm(omega.dim, omega.degree - 1, coeffs)


def wedge(left: KForm, right: KForm) -> KForm:
    """Shuffle-signed product; degrees beyond the dimension collapse to
    the zero top form by convention."""
    if left.dim != right.dim:
        raise InputError("wedge of forms over different algebras")
    dim = left.dim
    degree = left.degree + right.degree
    if degree > dim:
        return KForm.zero(dim, dim)
    coeffs = {}
    for idx in combinations(range(dim), degree):
        total = Fraction(0)
        for picks in combinations(range(degree), left.degree):
            lpart = tuple(idx[p] for p in picks)
            rpart = tuple(idx[p] for p in range(degree) if p not in picks)
            _, sign = _sort_sign(lpart + rpart)
            total += sign * left.coeffs[lpart] * right.coeffs[rpart]
        coeffs[idx] = total
    return KForm(dim, degree, coeffs)


def _cartan_differentials(g: LieAlgebraPresentation, top: int) -> tuple[int, list[dict]]:
    """Columns of D_0, ..., D_top, scaled by a common denominator.

    Returns that denominator, the least common one of the structure
    constants, and per degree k a dict from each increasing k-tuple c to
    the sparse integer column {(k+1)-tuple: coefficient}. Every D_k is
    linear in the constants, so clearing them once lets the build run on
    ints.

    Column c of D_k is read off the Cartan identity
    interior(e_j, D_k e^c) = lie(e_j, e^c) - D_{k-1}(interior(e_j, e^c)):
    its entry at (t0, rest) is the right side for field t0 at rest. The
    contraction of the column with every basis field is then checked
    against its right side; in the top degree the column is empty and
    every right side must vanish. A mismatch would contradict the
    construction and is raised as an internal error.
    """
    n = g.dim
    den = lcm(*(v.denominator for ci in g.c for cij in ci for v in cij))
    table = _lie_table(
        [[[v.numerator * (den // v.denominator) for v in cij] for cij in ci] for ci in g.c]
    )
    lower = {}
    differentials = []
    for k in range(top + 1):
        columns = {}
        for c in combinations(range(n), k):
            inner = {j: (sign, rest) for j, sign, rest in _contractions(c)}
            sides = []
            for j in range(n):
                side = _lie_column(table, j, c)
                if j in inner:
                    sign, rest = inner[j]
                    for r, v in lower[rest].items():
                        side[r] = side.get(r, 0) - sign * v
                sides.append({r: v for r, v in side.items() if v})
            column = {
                (t0,) + rest: v
                for t0, side in enumerate(sides)
                for rest, v in side.items()
                if not rest or t0 < rest[0]
            }
            got = [{} for _ in range(n)]
            for r, v in column.items():
                for j, sign, rest in _contractions(r):
                    got[j][rest] = sign * v
            for j in range(n):
                if got[j] != sides[j]:
                    raise InternalInvariantError(
                        f"Cartan build of degree {k} inconsistent at column "
                        f"{c} when contracted with basis field {j}"
                    )
            columns[c] = column
        differentials.append(columns)
        lower = columns
    return den, differentials


def exterior_derivative(g: LieAlgebraPresentation, omega: KForm) -> KForm:
    """The differential D_k of the Cartan build applied to the
    coefficients of a k-form. Degree 0 dies, and a top form maps to the
    zero top form since there are no degree n+1 slots."""
    if omega.dim != g.dim:
        raise InputError("form does not match the algebra dimension")
    k = omega.degree
    den, differentials = _cartan_differentials(g, k)
    if k == g.dim:
        return KForm.zero(g.dim, g.dim)
    coeffs = {}
    for c, column in differentials[k].items():
        w = omega.coeffs[c]
        if w == 0:
            continue
        for r, v in column.items():
            coeffs[r] = coeffs.get(r, 0) + w * v
    return KForm(g.dim, k + 1, {r: v / den for r, v in coeffs.items()})


def d_one_form(g: LieAlgebraPresentation, omega: KForm) -> KForm:
    """Differential of a 1-form: minus its value on brackets, since the
    derivation terms vanish on constant coefficients."""
    if omega.degree != 1:
        raise InputError(f"expected a 1-form, got degree {omega.degree}")
    return exterior_derivative(g, omega)


def ce_oracle(g: LieAlgebraPresentation, omega: KForm) -> KForm:
    """Alternating-sum differential used only to guard the Cartan build.

    Shares nothing with the build except the bracket: the
    coefficient on a tuple is the signed sum over index pairs of the form
    evaluated with that pair's bracket in front of the remaining indices.
    """
    if omega.dim != g.dim:
        raise InputError("form does not match the algebra dimension")
    k = omega.degree
    if k >= g.dim:
        return KForm.zero(g.dim, g.dim)
    coeffs = {}
    for idx in combinations(range(g.dim), k + 1):
        total = Fraction(0)
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                rest = tuple(
                    idx[r] for r in range(k + 1) if r != p and r != q
                )
                br = g.c[idx[p]][idx[q]]
                for l in range(g.dim):
                    if br[l] == 0:
                        continue
                    total += (-1) ** (p + q) * br[l] * omega.on_basis((l,) + rest)
        coeffs[idx] = total
    return KForm(g.dim, k + 1, coeffs)


def rational_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix. Each row is scaled by the least common
    multiple of its denominators, which leaves the rank unchanged, and
    the integer rows are eliminated fraction-free."""
    rows = []
    for row in matrix:
        m = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (m // v.denominator) for v in row])
    return _int_rank(rows)


def _int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    After each pivot every remaining entry is a minor of the input, so
    dividing by the previous pivot is exact. Rows are independent of one
    another between pivots, so zero rows are dropped as they appear, and
    a column without a pivot is dropped too.
    """
    rows = [list(r) for r in rows if any(r)]
    rank, prev = 0, 1
    while rows:
        pivot = next((i for i, r in enumerate(rows) if r[0]), None)
        if pivot is None:
            rows = [r[1:] for r in rows]
            continue
        top = rows.pop(pivot)
        p, tail = top[0], top[1:]
        reduced = []
        for r in rows:
            a = r[0]
            r = [(p * x - a * y) // prev for x, y in zip(r[1:], tail)]
            if any(r):
                reduced.append(r)
        rows, prev = reduced, p
        rank += 1
    return rank


@dataclass(frozen=True)
class ComplexReport:
    """Differential matrices per degree, their ranks, and Betti numbers."""

    dim: int
    basis: tuple[str, ...]
    matrices: tuple[tuple[tuple[Fraction, ...], ...], ...]
    ranks: tuple[int, ...]
    betti: tuple[int, ...]

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))


def de_rham_complex(g: LieAlgebraPresentation) -> ComplexReport:
    """Build every differential, verify d after d is exactly zero, and
    compute Betti numbers from exact ranks."""
    validate_lie(g)
    n = g.dim
    den, differentials = _cartan_differentials(g, n)
    _check_d_squared(differentials)
    bases = [list(combinations(range(n), k)) for k in range(n + 2)]
    fractions = {0: Fraction(0)}

    def entry(v: int) -> Fraction:
        if v not in fractions:
            fractions[v] = Fraction(v, den)
        return fractions[v]

    matrices = []
    ranks = []
    for k, columns in enumerate(differentials):
        cols = [columns[c] for c in bases[k]]
        rows = bases[k + 1]
        matrices.append(
            tuple(tuple(entry(col.get(r, 0)) for col in cols) for r in rows)
        )
        ranks.append(_int_rank([[col.get(r, 0) for r in rows] for col in cols if col]))
    betti = []
    for k in range(n + 1):
        kernel = len(bases[k]) - ranks[k]
        image_prev = ranks[k - 1] if k >= 1 else 0
        betti.append(kernel - image_prev)
    return ComplexReport(
        n, g.basis, tuple(matrices), tuple(ranks), tuple(betti)
    )


def _check_d_squared(differentials: list[dict]) -> None:
    """Exact D_{k+1} D_k = 0 as a sparse product: each column of D_k is
    pushed through the columns of D_{k+1} at its nonzero rows."""
    for k in range(len(differentials) - 1):
        later = differentials[k + 1]
        for column in differentials[k].values():
            image = {}
            for r, v in column.items():
                for s, w in later[r].items():
                    image[s] = image.get(s, 0) + v * w
            if any(image.values()):
                raise InternalInvariantError(
                    f"composite of differentials in degrees {k} and {k + 1} "
                    f"is nonzero"
                )


def abelian(dim: int) -> LieAlgebraPresentation:
    return LieAlgebraPresentation.from_brackets(dim, [])


def heisenberg() -> LieAlgebraPresentation:
    return LieAlgebraPresentation.from_brackets(
        3, [(0, 1, (0, 0, 1))]
    )


def sl2() -> LieAlgebraPresentation:
    """Basis (h, e, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebraPresentation.from_brackets(
        3,
        [
            (0, 1, (0, 2, 0)),
            (0, 2, (0, 0, -2)),
            (1, 2, (1, 0, 0)),
        ],
        basis=("h", "e", "f"),
    )
