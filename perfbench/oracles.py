"""Independent oracles for the benchmark's operations.

Nothing here imports stratcalc or sympy. Every expected result is
recomputed from the generated inputs with plain bitmask, float and
Fraction arithmetic, using textbook facts rather than the program's
algorithms:

- a finite topology is the up-set family of its specialization
  preorder, so spaces, generated topologies and quotients are rebuilt
  from minimal open sets U_x;
- a cover quotient groups points by their signature (the set of
  members containing them) and orders classes by signature inclusion;
- the cover-independent limit is the T0 quotient of the specialization
  preorder;
- squares are rechecked pointwise;
- derivatives come from hand-written order-2 jet rules;
- Betti numbers come from binomials, the Kuenneth formula and, for
  almost-abelian algebras R^n x|_D R with D diagonal, from
  b_k = #{|I| = k, sum D_I = 0} + #{|I| = k - 1, sum D_I = 0}.

Each ``check_*`` function returns a list of problems; an empty list
means the result agrees with its oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

# Documented refusal bound of standard_stratification (classes per cover).
CLASS_BOUND = 20
# The second-derivative outer tolerance documented for nth_derivative.
SECOND_ORDER_TOL = 1e-3
# Derived values may sit this many tolerances away from the exact value:
# the limit loop stops on a successive difference below tol, and the
# extrapolated value is within a small multiple of that.
TOL_SLACK = 20.0


# ---------------------------------------------------------------- topology


def bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def up_closure(n, pairs):
    """Minimal opens of the up-set topology of the order generated by pairs."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in bits(up[i] & ~(1 << i)):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


def subbasis_minimal(n, members):
    """U_x = intersection of the subbasis members containing x."""
    full = (1 << n) - 1
    out = []
    for x in range(n):
        u = full
        for m in members:
            if m >> x & 1:
                u &= m
        out.append(u)
    return out


def opens_from_minimal(minimal, cap=None):
    """All unions of minimal opens (with the empty set), or None past cap."""
    seen = {0}
    stack = [0]
    while stack:
        o = stack.pop()
        for u in minimal:
            w = o | u
            if w not in seen:
                seen.add(w)
                if cap is not None and len(seen) > cap:
                    return None
                stack.append(w)
    return seen


def minimal_from_opens(n, opens):
    full = (1 << n) - 1
    out = []
    for x in range(n):
        u = full
        for o in opens:
            if o >> x & 1:
                u &= o
        out.append(u)
    return out


class Labels:
    """Sorted point labels and conversions between label lists and masks."""

    def __init__(self, labels):
        self.names = sorted(labels)
        self.index = {p: i for i, p in enumerate(self.names)}
        self.n = len(self.names)

    def mask(self, members):
        m = 0
        for p in members:
            m |= 1 << self.index[p]
        return m

    def names_of(self, mask):
        return [self.names[i] for i in bits(mask)]


def minimal_of_space(space):
    """(Labels, minimal opens) of a generated space description."""
    lab = Labels(space["points"])
    n = lab.n
    source = space["source"]
    if source == "discrete":
        return lab, [1 << i for i in range(n)]
    if source == "poset":
        pairs = [(lab.index[a], lab.index[b]) for a, b in space["pairs"]]
        return lab, up_closure(n, pairs)
    if source == "basis":
        return lab, subbasis_minimal(n, [lab.mask(b) for b in space["basis"]])
    if source == "opens":
        return lab, minimal_from_opens(n, [lab.mask(o) for o in space["opens"]])
    raise ValueError(f"unknown source {source!r}")


class Quotient:
    """Classes of points with equal keys, ordered by a key relation.

    ``classes`` lists (representative, member names, key) sorted by
    representative; the representative is the least member.
    """

    def __init__(self, lab, keys, le):
        fibers = {}
        for i in range(lab.n):
            fibers.setdefault(keys[i], []).append(i)
        groups = sorted(fibers.values())
        self.classes = [
            (lab.names[g[0]], [lab.names[i] for i in g], keys[g[0]]) for g in groups
        ]
        self.of = {lab.names[i]: lab.names[g[0]] for g in groups for i in g}
        self.pairs = {
            (a[0], b[0]) for a in self.classes for b in self.classes if le(a[2], b[2])
        }

    @property
    def reps(self):
        return [c[0] for c in self.classes]

    def le(self, a, b):
        return (a, b) in self.pairs

    def hasse(self):
        strict = {(a, b) for a, b in self.pairs if a != b}
        reps = self.reps
        return sorted(
            (a, b)
            for a, b in strict
            if not any((a, m) in strict and (m, b) in strict for m in reps)
        )

    def upset_count(self, cap=None):
        """Number of up-sets, or cap + 1 once it is exceeded."""
        reps = self.reps
        pos = {r: i for i, r in enumerate(reps)}
        minimal = [0] * len(reps)
        for a, b in self.pairs:
            minimal[pos[a]] |= 1 << pos[b]
        ups = opens_from_minimal(minimal, cap)
        return cap + 1 if ups is None else len(ups)


def cover_quotient(lab, members):
    """Signature quotient of a cover given as member masks."""
    sig = [0] * lab.n
    for t, m in enumerate(members):
        for x in bits(m):
            sig[x] |= 1 << t
    return Quotient(lab, sig, lambda a, b: a & ~b == 0), sig


def cover_topology(lab, members):
    """Opens generated by the cover: unions of U2_x = {y : sig_y contains sig_x}."""
    _, sig = cover_quotient(lab, members)
    minimal = [
        sum(1 << y for y in range(lab.n) if sig[x] & ~sig[y] == 0) for x in range(lab.n)
    ]
    return opens_from_minimal(minimal)


def t0_quotient(lab, minimal):
    """Kolmogorov quotient of the specialization preorder: x <= y iff y in U_x."""
    return Quotient(lab, minimal, lambda a, b: b & ~a == 0)


def is_monotone(minimal, table):
    """f is continuous iff it maps each U_x into U_f(x)."""
    return all(
        all(minimal[table[x]] >> table[y] & 1 for y in bits(minimal[x]))
        for x in range(len(minimal))
    )


# ------------------------------------------------------------ derivatives


def jet(node, x, v):
    """(value, first, second) directional derivatives of an expression tree
    along t -> x + t v at t = 0, by hand-written order-2 chain rules."""
    op = node[0]
    if op == "var":
        return (x[node[1]], v[node[1]], 0.0)
    if op == "const":
        return (float(Fraction(node[1])), 0.0, 0.0)
    if op in ("sin", "cos", "exp"):
        u0, u1, u2 = jet(node[1], x, v)
        if op == "sin":
            s, c = math.sin(u0), math.cos(u0)
            return (s, c * u1, -s * u1 * u1 + c * u2)
        if op == "cos":
            s, c = math.sin(u0), math.cos(u0)
            return (c, -s * u1, -c * u1 * u1 - s * u2)
        e = math.exp(u0)
        return (e, e * u1, e * (u1 * u1 + u2))
    if op == "pow":
        u0, u1, u2 = jet(node[1], x, v)
        k = node[2]
        return (
            u0**k,
            k * u0 ** (k - 1) * u1,
            k * (k - 1) * u0 ** (k - 2) * u1 * u1 + k * u0 ** (k - 1) * u2,
        )
    a0, a1, a2 = jet(node[1], x, v)
    b0, b1, b2 = jet(node[2], x, v)
    if op == "add":
        return (a0 + b0, a1 + b1, a2 + b2)
    if op == "sub":
        return (a0 - b0, a1 - b1, a2 - b2)
    if op == "mul":
        return (a0 * b0, a1 * b0 + a0 * b1, a2 * b0 + 2 * a1 * b1 + a0 * b2)
    if op == "div":
        c0 = a0 / b0
        c1 = (a1 - c0 * b1) / b0
        return (c0, c1, (a2 - 2 * c1 * b1 - c0 * b2) / b0)
    raise ValueError(f"unknown node {op!r}")


def _close(got, want, tol):
    return all(
        isinstance(g, (int, float)) and abs(g - w) <= tol * max(1.0, abs(w))
        for g, w in zip(got, want)
    ) and len(got) == len(want)


# --------------------------------------------------------------- algebra


def binomials(m):
    return [math.comb(m, k) for k in range(m + 1)]


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


BASE_BETTI = {"heisenberg": [1, 2, 2, 1], "sl2": [1, 0, 0, 1]}


def expected_betti(alg):
    kind, dim = alg["kind"], alg["dim"]
    if kind == "abelian":
        return binomials(dim)
    if kind in BASE_BETTI:
        return convolve(BASE_BETTI[kind], binomials(dim - 3))
    if kind == "almost-abelian":
        diag = alg["diag"]
        zero = [
            sum(1 for idx in combinations(diag, k) if sum(idx) == 0)
            for k in range(len(diag) + 1)
        ]
        return [(zero[k] if k < len(zero) else 0) + (zero[k - 1] if k else 0)
                for k in range(dim + 1)]
    raise ValueError(f"unknown algebra kind {kind!r}")


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------- checks


def _want(problems, cond, what):
    if not cond:
        problems.append(what)


def _quotient_doc_problems(doc, q, problems, check_signature=None):
    classes = doc.get("classes", [])
    _want(problems, [c["representative"] for c in classes] == q.reps, "class representatives")
    _want(problems, [c["id"] for c in classes] == q.reps, "class ids")
    _want(problems, [c["members"] for c in classes] == [c[1] for c in q.classes], "class members")
    if check_signature is not None:
        _want(problems, [c["signature"] for c in classes] == check_signature, "class signatures")
    order = doc.get("order", {})
    _want(problems, {tuple(p) for p in order.get("full", [])} == q.pairs, "class order")
    _want(problems, [tuple(p) for p in order.get("hasse", [])] == q.hasse(), "hasse pairs")


def check_space(space, doc):
    lab, minimal = minimal_of_space(space)
    problems = []
    _want(problems, doc.get("points") == lab.names, "points")
    got = {lab.mask(o) for o in doc.get("opens", [])}
    _want(problems, len(got) == len(doc.get("opens", [])), "duplicate opens")
    _want(problems, got == opens_from_minimal(minimal), "open family")
    return problems


def check_stratify(space, cover, doc, formulas=None):
    """A stratification document against the signature quotient."""
    lab, _ = minimal_of_space(space)
    members = [lab.mask(m) for m in cover]
    q, _ = cover_quotient(lab, members)
    problems = []
    _quotient_doc_problems(doc, q, problems, [list(bits(c[2])) for c in q.classes])
    _want(problems, doc.get("s") == q.of, "point map s")
    second = cover_topology(lab, members)
    got = {lab.mask(o) for o in doc.get("second_topology", [])}
    _want(problems, got == second, "second topology")
    cont = doc.get("continuity", {})
    _want(problems, cont.get("up_sets") == q.upset_count() == len(cont.get("entries", [])),
          "up-set count")
    members_of = {c[0]: lab.mask(c[1]) for c in q.classes}
    for e in cont.get("entries", []):
        pre = 0
        for r in e["up_set"]:
            pre |= members_of.get(r, 0)
        if lab.mask(e["preimage"]) != pre or pre not in second:
            problems.append(f"certificate entry {e['up_set']}")
            break
    if formulas is not None:
        _want(problems, formulas == {c[0]: c[1] for c in q.classes}, "fiber formulas")
    return problems


def check_limit(space, doc, covers):
    """Limit poset = T0 quotient. ``covers`` lists the covers (as member
    name lists) whose coarsening surjections the document must carry as
    witnesses, in order; None means no witnesses. "witness" stands for
    what `limit --witness` samples: the trivial cover, then (U, full) for
    each nonempty proper open U in canonical order."""
    lab, minimal = minimal_of_space(space)
    limit = t0_quotient(lab, minimal)
    problems = []
    _quotient_doc_problems(doc, limit, problems)
    if covers is None:
        _want(problems, "witnesses" not in doc, "unrequested witnesses")
        return problems
    full = (1 << lab.n) - 1
    if covers == "witness":
        opens = sorted(
            (o for o in opens_from_minimal(minimal) if o and o != full),
            key=lab.names_of,
        )
        masks = [[full]] + [[o, full] for o in opens]
    else:
        masks = [[lab.mask(m) for m in cov] for cov in covers]
    wit = doc.get("witnesses", [])
    _want(problems, len(wit) == len(masks), "witness count")
    for cov, w in zip(masks, wit):
        coarse, _ = cover_quotient(lab, cov)
        if w.get("surjection") != {r: coarse.of[r] for r in limit.reps} or (
            w.get("cover") != [lab.names_of(m) for m in cov]
        ) or w.get("monotone") is not True:
            problems.append(f"witness for cover {w.get('cover')}")
            break
    return problems


def check_section(space, coarse_cover, fine_cover, doc):
    lab, _ = minimal_of_space(space)
    coarse, _ = cover_quotient(lab, [lab.mask(m) for m in coarse_cover])
    fine, _ = cover_quotient(lab, [lab.mask(m) for m in fine_cover])
    mapping = {r: fine.of[r] for r in coarse.reps}
    problems = []
    _want(problems, doc.get("mapping") == mapping, "section mapping")
    _want(problems, doc.get("injective") == (len(set(mapping.values())) == len(mapping)),
          "section injective flag")
    mono = all(fine.le(mapping[a], mapping[b]) for a, b in coarse.pairs)
    _want(problems, doc.get("monotone") == mono, "section monotone flag")
    _want(problems, doc.get("surjective") == (set(mapping.values()) == set(fine.reps)),
          "section surjective flag")
    return problems


def _continuous_into(lab, domain_opens, target_opens, table):
    for o in target_opens:
        pre = 0
        for x in range(lab.n):
            if table[x] is not None and o >> table[x] & 1:
                pre |= 1 << x
        if pre not in domain_opens:
            return False
    return True


def check_square(space, cover1, cover2, f, doc, mode):
    """Recheck an induced square pointwise.

    ``mode`` is "restricted" (induce_g over cover1/cover2) or
    "identity-domain" (alt_induce_g over the specialization order).
    """
    lab, minimal = minimal_of_space(space)
    q2, _ = cover_quotient(lab, [lab.mask(m) for m in cover2])
    second2 = cover_topology(lab, [lab.mask(m) for m in cover2])
    problems = []
    if mode == "restricted":
        q1, _ = cover_quotient(lab, [lab.mask(m) for m in cover1])
        second1 = cover_topology(lab, [lab.mask(m) for m in cover1])
        domain = q1.reps
        g = {c: q2.of[f[c]] for c in domain}
        s1 = q1.of
        mono = all(q2.le(g[a], g[b]) for a, b in q1.pairs)
        reps = lab.mask(domain)
        sub_opens = {o & reps for o in second1}
    else:
        domain = lab.names
        g = {p: q2.of[f[p]] for p in domain}
        s1 = {p: p for p in domain}
        mono = all(
            q2.le(g[lab.names[x]], g[lab.names[y]])
            for x in range(lab.n)
            for y in bits(minimal[x])
        )
        reps = (1 << lab.n) - 1
        sub_opens = opens_from_minimal(minimal)
    table = [lab.index[f[p]] if reps >> i & 1 else None for i, p in enumerate(lab.names)]
    witness = next(
        ([p, g[s1[p]], q2.of[f[p]]] for p in lab.names if g[s1[p]] != q2.of[f[p]]), None
    )
    _want(problems, doc.get("mode") == mode, "square mode")
    _want(problems, doc.get("domain_points") == domain, "square domain")
    _want(problems, doc.get("g") == g, "class map g")
    _want(problems, doc.get("g_is_identity") == all(k == v for k, v in g.items()), "g identity flag")
    _want(problems, doc.get("commutes_on_domain") is True, "commutes on domain")
    _want(problems, doc.get("commutes_everywhere") == (witness is None), "commutes everywhere flag")
    _want(problems, doc.get("full_witness") == witness, "full witness")
    _want(problems, doc.get("g_monotone") == mono, "g monotone flag")
    _want(problems, doc.get("f_continuous") == _continuous_into(lab, sub_opens, second2, table),
          "top continuity flag")
    want_w = [[p, g[s1[p]], q2.of[f[p]]] for p in domain]
    _want(problems, doc.get("witnesses") == want_w, "commutativity witnesses")
    return problems


def check_derivative(query, doc):
    """First-order report: an honest not-derivable verdict is accepted;
    a derivable one must match the hand-written derivative."""
    x, v, tol = query["x"], query["v"], query["tol"]
    jets = [jet(t, x, v) for t in query["trees"]]
    problems = []
    _want(problems, doc.get("tol") == tol, "tolerance echo")
    if not doc.get("derivable"):
        _want(problems, bool(doc.get("failure")), "not-derivable report")
        return problems
    value = doc.get("value") or {}
    _want(problems, _close(value.get("fx", []), [j[0] for j in jets], 1e-9), "image point fx")
    _want(problems, _close(value.get("w", []), [j[1] for j in jets], TOL_SLACK * tol), "first derivative")
    _want(problems, value.get("cone") == query["cone_limit"], "cone slot")
    return problems


def check_second(query, doc):
    x, v = query["x"], query["v"]
    jets = [jet(t, x, v) for t in query["trees"]]
    problems = []
    _want(problems, doc.get("order") == 2 and doc.get("route") == "scheme-map", "second-order header")
    if not doc.get("derivable"):
        _want(problems, doc.get("bilinear") is None and bool(doc.get("failure")), "not-derivable report")
        return problems
    _want(problems, _close(doc.get("bilinear") or [], [j[2] for j in jets], TOL_SLACK * SECOND_ORDER_TOL),
          "second derivative")
    base = (doc.get("base") or {}).get("value") or {}
    _want(problems, _close(base.get("w", []), [j[1] for j in jets], TOL_SLACK * SECOND_ORDER_TOL),
          "base first derivative")
    return problems


def check_complex(alg, doc):
    dim = alg["dim"]
    problems = []
    _want(problems, doc.get("dim") == dim, "dimension")
    _want(problems, doc.get("betti") == expected_betti(alg), "betti numbers")
    try:
        mats = [[[Fraction(e) for e in row] for row in m] for m in doc.get("matrices", [])]
    except (TypeError, ValueError, ZeroDivisionError):
        return problems + ["matrix entries"]
    shapes = [(math.comb(dim, k + 1) if k < dim else 0, math.comb(dim, k)) for k in range(dim + 1)]
    _want(problems, [(len(m), len(m[0]) if m else shapes[k][1]) for k, m in enumerate(mats)] == shapes
          and len(mats) == dim + 1, "matrix shapes")
    if problems:
        return problems
    ranks = [_rank(m) for m in mats]
    _want(problems, doc.get("ranks") == ranks, "ranks")
    for k in range(dim):
        later, earlier = mats[k + 1], mats[k]
        if later and any(
            sum(later[r][m] * earlier[m][c] for m in range(len(earlier))) != 0
            for r in range(len(later))
            for c in range(len(earlier[0]))
        ):
            problems.append(f"d after d nonzero in degree {k}")
    _want(problems, doc.get("euler_characteristic") == 0, "euler characteristic")
    return problems
