"""Seeded random generators and the invariant suites built on them.

Every suite takes a Random instance and a case count, raises on the
first violated invariant, and returns the number of cases it ran. The
command line runs all suites from one seed and renders a summary that is
byte-identical across runs with the same seed: no timestamps, no
ordering that depends on hash randomization.
"""

from __future__ import annotations

import hashlib
import json
import string
from fractions import Fraction
from itertools import combinations
from random import Random

from . import __version__
from .cones import CONE_APEX, cone_coord, cone_map, cone_poset, gamma_round_trip_error
from .derive import (
    Piece,
    PiecewiseConeAction,
    closed_form_parametric,
    derive,
    identity_spec,
    parametric_spec,
)
from .errors import StratcalcError
from .exprfn import ExprFunction
from .forms import (
    KForm,
    LieAlgebraPresentation,
    abelian,
    ce_oracle,
    de_rham_complex,
    exterior_derivative,
    heisenberg,
    interior_product,
    lie_derivative,
    sl2,
    validate_lie,
    wedge,
)
from .refine import (
    RefinementPair,
    coarsening_from_refined,
    coarsening_surjection,
    is_refinement,
    maximal_cover,
    refined_poset,
    representative_section,
)
from .spaces import (
    FiniteSpace,
    PointMap,
    Poset,
    alexandroff_from_poset,
    check_continuity,
    compose_maps,
    generate_topology,
    specialization_preorder,
)
from .squares import alt_induce_g, check_square, choose_representatives, induce_g
from .stratify import (
    Cover,
    h_map,
    preorder_to_partial_order,
    quotient_poset,
    standard_stratification,
    stratum_preimage_formula,
)


# ---------------------------------------------------------------------------
# random instance generators


def rand_space(rng: Random, max_points: int = 10) -> FiniteSpace:
    n = rng.randint(1, max_points)
    points = list(string.ascii_lowercase[:n])
    basis = []
    for _ in range(rng.randint(0, 4)):
        size = rng.randint(1, n)
        basis.append(frozenset(rng.sample(points, size)))
    return generate_topology(points, basis)


def rand_cover(rng: Random, space: FiniteSpace, max_members: int = 5) -> Cover:
    opens = [u for u in space.opens_sorted() if u]
    members = rng.sample(opens, min(len(opens), rng.randint(1, max_members - 1)))
    if frozenset().union(*members) != space.full:
        members.append(space.full)
    # drop duplicates, keep order
    members = list(dict.fromkeys(members))
    return Cover(space, tuple(members))


def rand_refinement_pair(rng: Random, space: FiniteSpace) -> RefinementPair:
    coarse = rand_cover(rng, space)
    extra = [u for u in space.opens_sorted() if u and u not in set(coarse.members)]
    add = rng.sample(extra, min(len(extra), rng.randint(0, 3)))
    fine = Cover(space, coarse.members + tuple(add))
    return RefinementPair(coarse, fine)


def rand_poset(rng: Random, max_elements: int = 6) -> Poset:
    n = rng.randint(1, max_elements)
    els = list(string.ascii_lowercase[:n])
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                pairs.append((els[i], els[j]))
    return Poset.generate(els, pairs)


def rand_monotone_map(rng: Random, source: Poset, target: Poset) -> dict:
    order = sorted(
        source.elements, key=lambda e: sum(source.le(o, e) for o in source.elements)
    )
    for _ in range(6):
        mapping = {}
        ok = True
        for e in order:
            lower = [mapping[o] for o in source.elements if o in mapping and source.le(o, e)]
            candidates = [
                q for q in target.elements if all(target.le(l, q) for l in lower)
            ]
            if not candidates:
                ok = False
                break
            mapping[e] = rng.choice(candidates)
        if ok and source.is_monotone(mapping, target):
            return mapping
    top = max(
        target.elements, key=lambda q: sum(target.le(o, q) for o in target.elements)
    )
    return {e: top for e in source.elements}


def rand_continuous_map(rng: Random, dom: FiniteSpace, cod: FiniteSpace) -> PointMap:
    for _ in range(8):
        table = {p: rng.choice(cod.points) for p in dom.points}
        m = PointMap(dom, cod, table)
        if check_continuity(m):
            return m
    q = rng.choice(cod.points)
    return PointMap(dom, cod, {p: q for p in dom.points})


def _unimodular(rng: Random, n: int):
    """Random integer matrix with determinant +-1, with its exact inverse."""
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    p = [row[:] for row in ident]
    pinv = [row[:] for row in ident]
    for _ in range(rng.randint(2, 6)):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if a == b:
            continue
        lam = Fraction(rng.randint(-2, 2))
        # row_a += lam * row_b on p; the inverse gets col_b -= lam * col_a
        for j in range(n):
            p[a][j] += lam * p[b][j]
        for i in range(n):
            pinv[i][b] -= lam * pinv[i][a]
    return p, pinv


def _conjugate_constants(g: LieAlgebraPresentation, p, pinv) -> LieAlgebraPresentation:
    n = g.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for r in range(n):
                total = Fraction(0)
                for i in range(n):
                    if p[a][i] == 0:
                        continue
                    for j in range(n):
                        if p[b][j] == 0:
                            continue
                        for l in range(n):
                            if g.c[i][j][l] == 0:
                                continue
                            total += p[a][i] * p[b][j] * g.c[i][j][l] * pinv[l][r]
                c[a][b][r] = total
    return LieAlgebraPresentation(
        n, tuple(f"e{i+1}" for i in range(n)),
        tuple(tuple(tuple(row) for row in ci) for ci in c),
    )


def _almost_abelian(rng: Random, n: int) -> LieAlgebraPresentation:
    """Nonzero brackets only between the first field and the others, each
    an eigenvector; the Jacobi identity holds for any eigenvalues."""
    brackets = []
    for j in range(1, n):
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        coeffs = [Fraction(0)] * n
        coeffs[j] = lam
        brackets.append((0, j, tuple(coeffs)))
    return LieAlgebraPresentation.from_brackets(n, brackets)


def _padded(g: LieAlgebraPresentation, n: int) -> LieAlgebraPresentation:
    """Direct sum with an abelian factor to reach dimension n."""
    if n < g.dim:
        raise ValueError("cannot shrink")
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(g.dim):
        for j in range(g.dim):
            for l in range(g.dim):
                c[i][j][l] = g.c[i][j][l]
    return LieAlgebraPresentation(
        n, tuple(f"e{i+1}" for i in range(n)),
        tuple(tuple(tuple(row) for row in ci) for ci in c),
    )


def rand_lie(rng: Random, max_dim: int = 4) -> LieAlgebraPresentation:
    n = rng.randint(1, max_dim)
    pool = [abelian(n), _almost_abelian(rng, n)] if n >= 2 else [abelian(1)]
    if n >= 3:
        pool.append(_padded(heisenberg(), n))
        pool.append(_padded(sl2(), n))
    g = rng.choice(pool)
    p, pinv = _unimodular(rng, n)
    out = _conjugate_constants(g, p, pinv)
    validate_lie(out)
    return out


def rand_form(rng: Random, dim: int, degree: int) -> KForm:
    coeffs = {}
    for idx in combinations(range(dim), degree):
        coeffs[idx] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return KForm(dim, degree, coeffs)


# ---------------------------------------------------------------------------
# invariant suites


def _check(condition: bool, message: str = "") -> None:
    """Fail the running suite when ``condition`` is false.

    An explicit raise instead of ``assert``, which ``python -O`` strips.
    """
    if not condition:
        raise AssertionError(message)


def suite_spaces(rng: Random, cases: int) -> int:
    for _ in range(cases):
        space = rand_space(rng)
        regenerated = generate_topology(space.points, space.opens)
        _check(regenerated.opens == space.opens, "closure is not idempotent")

        poset = rand_poset(rng)
        alx = alexandroff_from_poset(poset)
        _check(specialization_preorder(alx) == poset.leq,
            "up-set topology does not recover its order"
        )

        ident = PointMap(space, space, {p: p for p in space.points})
        _check(check_continuity(ident), "identity map not continuous")
        mid = rand_space(rng, 6)
        f = rand_continuous_map(rng, space, mid)
        g = rand_continuous_map(rng, mid, rand_space(rng, 6))
        _check(check_continuity(compose_maps(g, f)),
            "composite of continuous maps not continuous"
        )
    return cases


def suite_stratify(rng: Random, cases: int) -> int:
    for _ in range(cases):
        space = rand_space(rng)
        cover = rand_cover(rng, space)
        strat = standard_stratification(space, cover)
        h = h_map(space, cover)

        fibers = {}
        for p in space.points:
            fibers.setdefault(strat.s[p], set()).add(p)
        q = strat.quotient
        for cls in q.classes:
            _check(fibers[cls.representative] == set(cls.members),
                "quotient classes disagree with the fibers of s"
            )
            a = cls.representative
            _check(cls.signature == h[a] and cls.members == {x for x in h.points if h[x] == h[a]}
                and all(q.poset.le(a, r) == (h[a] <= h[r]) for r in q.poset.elements),
                "quotient disagrees with the h_map grouping"
            )
            formula = stratum_preimage_formula(strat, cls.representative)
            _check(formula == cls.members, "closed-form fiber disagrees")

        shared = any(
            h[x] == h[y]
            for i, x in enumerate(space.points)
            for y in space.points[i + 1:]
        )
        symmetric = any(
            h[x] <= h[y] and h[y] <= h[x]
            for i, x in enumerate(space.points)
            for y in space.points[i + 1:]
        )
        _check(shared == symmetric,
            "preorder antisymmetry must fail exactly on shared signatures"
        )

        preorder_to_partial_order(h)  # construction validates the axioms
    return cases


def suite_refine(rng: Random, cases: int) -> int:
    for _ in range(cases):
        space = rand_space(rng)
        pair = rand_refinement_pair(rng, space)
        surj = coarsening_surjection(pair)
        _check(surj.monotone and surj.surjective)
        section = representative_section(pair)
        for cls in surj.target.classes:
            _check(surj(section.section(cls.representative)) == cls.representative,
                "section composed with coarsening is not the identity"
            )

        cover = rand_cover(rng, space)
        limit_map = coarsening_from_refined(space, cover)
        _check(limit_map.monotone and limit_map.surjective)
        _check({limit_map(c.representative) for c in refined_poset(space).classes} == {
            c.representative for c in limit_map.target.classes
        })
        _check(refined_poset(space) == quotient_poset(space, maximal_cover(space)),
            "limit poset disagrees with the maximal cover's quotient"
        )

        c1 = rand_cover(rng, space)
        _check(is_refinement(c1, c1), "refinement must be reflexive")
        pair2 = rand_refinement_pair(rng, space)
        leftover = [
            u for u in space.opens_sorted() if u and u not in set(pair2.fine.members)
        ]
        finer = Cover(
            space,
            pair2.fine.members
            + tuple(rng.sample(leftover, min(2, len(leftover)))),
        )
        _check(is_refinement(pair2.coarse, finer), "refinement must be transitive")
        if is_refinement(pair2.fine, pair2.coarse):
            _check(set(pair2.fine.members) == set(pair2.coarse.members),
                "mutual refinement forces equal member sets"
            )
    return cases


def suite_squares(rng: Random, cases: int) -> int:
    for _ in range(cases):
        space1 = rand_space(rng, 6)
        cover1 = rand_cover(rng, space1)
        strat1 = standard_stratification(space1, cover1)
        space2 = rand_space(rng, 6)
        cover2 = rand_cover(rng, space2)
        strat2 = standard_stratification(space2, cover2)

        f = rand_continuous_map(rng, space1, space2)
        result = induce_g(f, strat1, strat2)
        cert = check_square(result.square)
        _check(cert.commutes)

        sub = choose_representatives(strat1)
        hit = {strat1.class_of(r) for r in sub.reps}
        _check(hit == {c.representative for c in strat1.quotient.classes})

        # f constant on each fiber commutes everywhere
        targets = {
            cls.representative: rng.choice(space2.points)
            for cls in strat1.quotient.classes
        }
        fc = PointMap(
            space1, space2, {p: targets[strat1.s[p]] for p in space1.points}
        )
        if check_continuity(fc):
            fiberwise = induce_g(fc, strat1, strat2)
            _check(fiberwise.commutes_everywhere,
                "fiber-constant maps must commute on the whole space"
            )

        t0 = alexandroff_from_poset(rand_poset(rng, 5))
        g = rand_continuous_map(rng, t0, space2)
        alt = alt_induce_g(g, strat2)
        _check(alt.commutes_everywhere)
    return cases


def suite_cones(rng: Random, cases: int) -> int:
    for _ in range(cases):
        dim = rng.randint(1, 3)
        a = 10.0 ** rng.uniform(-3, 3)
        v = tuple(rng.uniform(-1, 1) for _ in range(dim))
        x = tuple(rng.uniform(-1, 1) for _ in range(dim))
        if rng.random() < 0.2:
            c = CONE_APEX
        else:
            c = cone_coord(rng.uniform(1e-6, 1.0), "z")
        _check(gamma_round_trip_error(a, v, x, c) <= 1e-12)

        _check(cone_coord(0.0, "z") is CONE_APEX)

        p1, p2, p3 = rand_poset(rng, 4), rand_poset(rng, 4), rand_poset(rng, 4)
        ident = cone_map(p1, p1, {e: e for e in p1.elements})
        _check(all(ident(e) == e for e in ident.source.poset.elements))
        g1 = rand_monotone_map(rng, p1, p2)
        g2 = rand_monotone_map(rng, p2, p3)
        lhs = cone_map(p1, p3, {e: g2[g1[e]] for e in p1.elements})
        c1, c2 = cone_map(p1, p2, g1), cone_map(p2, p3, g2)
        _check(all(
            lhs(e) == c2(c1(e)) for e in lhs.source.poset.elements
        ), "cone extension is not functorial")

        cone = cone_poset(p1)
        _check(len(cone.poset.elements) == len(p1.elements) + 1)
        _check(all(cone.poset.le(cone.apex, e) for e in cone.poset.elements))
    return cases


_DERIVE_POOL_1D = [
    ("affine", ["2*x1 + 1"]),
    ("square", ["x1**2"]),
    ("sine", ["sin(x1)"]),
]
_DERIVE_POOL_2D = [
    ("affine2", ["2*x1 - x2 + 1", "x1 + 3*x2"]),
    ("square2", ["x1**2 + x2", "x1*x2"]),
    ("sine2", ["sin(x1) + cos(x2)", "exp(x2/4)"]),
]


def _rand_rho(rng: Random, points, targets):
    tables = []
    for _ in range(rng.randint(1, 3)):
        tables.append({p: rng.choice(targets) for p in points})
    pieces = []
    lo = 0.0
    for i, table in enumerate(tables):
        hi = None if i == len(tables) - 1 else lo + rng.uniform(0.3, 1.2)
        pieces.append(Piece(lo, hi, table))
        lo = hi if hi is not None else lo
    return PiecewiseConeAction(tuple(pieces))


def suite_derive(rng: Random, cases: int) -> int:
    from .spaces import discrete_space

    space = discrete_space(["z1", "z2", "z3"])
    for _ in range(cases):
        arity = rng.choice([1, 2])
        pool = _DERIVE_POOL_1D if arity == 1 else _DERIVE_POOL_2D
        _, components = rng.choice(pool)
        k = ExprFunction(arity, tuple(components))
        rho = _rand_rho(rng, space.points, list(space.points))
        spec = parametric_spec(k, rho, space, space)
        x = tuple(rng.uniform(-2, 2) for _ in range(arity))
        v = tuple(rng.uniform(-2, 2) for _ in range(arity))
        if rng.random() < 0.25:
            c = CONE_APEX
        else:
            c = cone_coord(rng.uniform(0.1, 3.0), rng.choice(space.points))
        # 1e-6 sits comfortably above the finite-difference noise floor
        # (about 1e-7 at unit scale); tighter requests stall on rounding.
        report = derive(spec, v, x, c, tol=1e-6)
        _check(report.derivable, f"smooth map flagged non-derivable: {report.failure}")
        exact = closed_form_parametric(spec, v, x, c)
        gap = max(
            max(abs(a - b) for a, b in zip(report.value.w, exact.w)),
            max(abs(a - b) for a, b in zip(report.value.fx, exact.fx)),
        )
        _check(gap <= 1e-6, f"numeric limit drifted {gap} from the closed form")
        _check(report.value.cone == exact.cone, "cone slots disagree")
        if c.is_apex:
            _check(report.value.cone.is_apex, "cone point must be preserved")

        # linearity of the vector part in the direction
        alpha, beta = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        v2 = tuple(rng.uniform(-2, 2) for _ in range(arity))
        combo = tuple(alpha * a + beta * b for a, b in zip(v, v2))
        w_combo = derive(spec, combo, x, c, tol=1e-6, probe_count=0).value.w
        w1 = derive(spec, v, x, c, tol=1e-6, probe_count=0).value.w
        w2 = derive(spec, v2, x, c, tol=1e-6, probe_count=0).value.w
        mix = tuple(alpha * a + beta * b for a, b in zip(w1, w2))
        _check(max(abs(a - b) for a, b in zip(w_combo, mix)) < 1e-6,
            "vector part is not linear in the direction"
        )

        ident = identity_spec(arity, space)
        rep = derive(ident, v, x, c)
        _check(rep.derivable and rep.residual < 1e-9)
        _check(max(abs(a - b) for a, b in zip(rep.value.w, v)) < 1e-9)
    return cases


def suite_forms(rng: Random, cases: int) -> int:
    corpus = [abelian(2), heisenberg(), sl2()]
    for _ in range(cases):
        corpus.append(rand_lie(rng))
    for g in corpus:
        report = de_rham_complex(g)  # raises if d after d fails
        _check(report.euler_characteristic == (0 if g.dim >= 1 else 1))
        for degree in range(g.dim + 1):
            omega = rand_form(rng, g.dim, degree)
            _check(exterior_derivative(g, omega) == ce_oracle(g, omega),
                "inductive differential disagrees with the alternating sum"
            )
        degree = rng.randint(1, g.dim)
        omega = rand_form(rng, g.dim, degree)
        field = tuple(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(g.dim)
        )
        cartan_lhs = lie_derivative(g, field, omega)
        if degree == g.dim:
            # the differential of a top form lives in the zero space, so
            # its contraction is the zero form of top degree
            contraction = KForm.zero(g.dim, g.dim)
        else:
            contraction = interior_product(field, exterior_derivative(g, omega))
        cartan_rhs = contraction.plus(
            exterior_derivative(g, interior_product(field, omega))
        )
        _check(cartan_lhs == cartan_rhs, "Cartan identity failed")

        d1 = rng.randint(0, g.dim)
        d2 = rng.randint(0, g.dim - d1)
        w1, w2 = rand_form(rng, g.dim, d1), rand_form(rng, g.dim, d2)
        lhs = exterior_derivative(g, wedge(w1, w2))
        rhs = wedge(exterior_derivative(g, w1), w2).plus(
            wedge(w1, exterior_derivative(g, w2)).scaled((-1) ** d1)
        )
        _check(lhs == rhs, "Leibniz rule failed")
    return len(corpus)


SUITES = (
    ("spaces", suite_spaces, 15),
    ("stratify", suite_stratify, 25),
    ("refine", suite_refine, 20),
    ("squares", suite_squares, 15),
    ("cones", suite_cones, 25),
    ("derive", suite_derive, 6),
    ("forms", suite_forms, 5),
)


def run_selftest(seed: int, inject_fault: bool = False, scale: float = 1.0):
    """Run every suite from one seed; returns (all_passed, summary text)."""
    config = {
        "seed": seed,
        "scale": scale,
        "suites": [(name, cases) for name, _, cases in SUITES],
        "version": __version__,
    }
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    lines = [
        f"stratcalc selftest v{__version__}",
        f"seed={seed} config={digest}",
    ]
    ok = True
    for name, suite, cases in SUITES:
        rng = Random(f"{seed}:{name}")
        count = max(1, int(cases * scale))
        try:
            ran = suite(rng, count)
            lines.append(f"{name}: PASS ({ran} cases)")
        except (AssertionError, StratcalcError) as exc:
            ok = False
            lines.append(f"{name}: FAIL ({exc})")
    if inject_fault:
        ok = False
        lines.append("injected-fault: FAIL (requested by test hook)")
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    return ok, "\n".join(lines) + "\n"
