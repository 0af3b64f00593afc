"""Deterministic inputs for the three workloads.

``strata_round``, ``calculus_round`` and ``cli_round`` turn a seed into
one round of operations: plain JSON-ready data that the worker (or the
CLI) consumes and that the oracles check against. The same seed gives
the same round.

Run-to-run spread is judged across seeds, so the library workloads keep
their costly structure fixed: strata draws every slot's space and covers
from a fixed stream and lets the seed relabel the points and pick the
square maps; calculus fixes the query templates and lets the seed pick
constants, points, directions and cone data. The cli round, whose cost
is dominated by interpreter start-up, draws everything from the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from oracles import (
    CLASS_BOUND,
    bits,
    cover_quotient,
    minimal_of_space,
    opens_from_minimal,
    up_closure,
)

# ------------------------------------------------------------------ spaces

# (source, points, opens band, T0 required, cover up-set band). The
# up-sets of a cover's quotient are the opens of the topology the cover
# generates; they set the cost of the continuity certificate. Bands are
# narrow so that different seeds cost about the same. Discrete spaces
# stop at 10 points: discrete_space(12) takes about 16 s at seed.
STRATA_SPACES = (
    ("discrete", 5, None, True, (12, 20)),
    ("discrete", 6, None, True, (20, 32)),
    ("discrete", 7, None, True, (40, 64)),
    ("discrete", 8, None, True, (80, 120)),
    ("discrete", 9, None, True, (150, 220)),
    ("discrete", 10, None, True, (100, 150)),
    ("poset", 8, (30, 45), True, (12, 20)),
    ("poset", 10, (60, 90), True, (25, 40)),
    ("poset", 12, (100, 150), True, (40, 60)),
    ("poset", 12, (100, 150), True, (40, 60)),
    ("poset", 14, (150, 220), True, (60, 90)),
    ("poset", 16, (200, 300), True, (100, 150)),
    ("poset", 16, (200, 300), True, (100, 150)),
    ("poset", 18, (250, 380), True, (120, 180)),
    ("poset", 20, (300, 450), True, (150, 220)),
    ("basis", 6, (20, 32), True, (8, 16)),
    ("basis", 8, (40, 60), True, (16, 30)),
    ("basis", 10, (80, 120), True, (30, 50)),
    ("basis", 12, (150, 220), True, (60, 90)),
    ("basis", 14, (200, 300), True, (80, 120)),
    ("basis", 9, (30, 50), False, (12, 24)),
    ("basis", 12, (60, 100), False, (25, 45)),
    ("basis", 16, (120, 180), False, (50, 80)),
)
# alt_induce_g certifies the identity stratification over every open:
# 0.85 s at 1024 opens on the seed code, so it runs up to 512.
ALT_OPENS = 512
REFUSAL_CHAIN = 21  # points of the chain whose maximal cover has 21 classes


def _labels(rng, n, prefix):
    pool = rng.sample(range(10 * n + 10), n)
    return [f"{prefix}{i:03d}" for i in pool]


def _poset_pairs(rng, n):
    """Index pairs of a random order of bounded width: a few chains with
    occasional edges from earlier to later positions of one linear order."""
    width = rng.randint(2, 4)
    order = list(range(n))
    rng.shuffle(order)
    chains = [[] for _ in range(width)]
    for pos, p in enumerate(order):
        chains[pos % width if pos < width else rng.randrange(width)].append(p)
    pairs = [(c[i], c[i + 1]) for c in chains for i in range(len(c) - 1)]
    rank = {p: i for i, p in enumerate(order)}
    for _ in range(rng.randint(0, n // 3)):
        a, b = rng.sample(range(n), 2)
        if rank[a] > rank[b]:
            a, b = b, a
        pairs.append((a, b))
    return pairs


def _space(rng, source, n, band, t0):
    """A space description with its minimal opens, sized into the band."""
    for _ in range(500):
        names = _labels(rng, n, "p")
        if source == "discrete":
            space = {"source": "discrete", "points": names}
        elif source == "poset":
            pairs = _poset_pairs(rng, n)
            space = {"source": "poset", "points": names,
                     "pairs": [[names[a], names[b]] for a, b in pairs]}
        else:
            # principal up-sets of a random order (all of them for a T0
            # space, some for a coarser one) plus a few unions of two
            up = up_closure(n, _poset_pairs(rng, n))
            chosen = range(n) if t0 else rng.sample(range(n), rng.randint(n // 2, n - 2))
            members = [up[x] for x in chosen]
            members += [up[a] | up[b] for a, b in (rng.sample(range(n), 2) for _ in range(3))]
            rng.shuffle(members)
            space = {"source": "basis", "points": names,
                     "basis": [[names[x] for x in bits(m)] for m in members]}
        lab, minimal = minimal_of_space(space)
        if t0 != (len(set(minimal)) == n):
            continue
        if band is not None:
            opens = opens_from_minimal(minimal, cap=band[1])
            if opens is None or len(opens) < band[0]:
                continue
        return space, lab, minimal
    raise RuntimeError(f"no {source} space of {n} points in band {band}")


def _random_open(rng, minimal):
    u = 0
    for x in rng.sample(range(len(minimal)), rng.randint(1, min(3, len(minimal)))):
        u |= minimal[x]
    return u


def _cover(rng, lab, minimal, band=None, base=()):
    """Members (as masks) that are open, cover the space, have at most
    CLASS_BOUND classes and, when a band is given, a quotient with an
    up-set count inside it; None when none turns up."""
    full = (1 << lab.n) - 1
    for _ in range(300):
        members = list(base)
        for _ in range(rng.randint(1, 4) if base else rng.randint(2, 10)):
            members.append(_random_open(rng, minimal))
        union = 0
        for m in members:
            union |= m
        if union != full:
            members.append(full)
        members = list(dict.fromkeys(members))  # drop repeats, keep order
        q, _ = cover_quotient(lab, members)
        if len(q.classes) > CLASS_BOUND:
            continue
        if band is None or band[0] <= q.upset_count(cap=band[1]) <= band[1]:
            return members
    return None


def _self_map(rng, lab, minimal, discrete):
    """A continuous self-map: any map on a discrete space, otherwise the
    map fixing an open U_d and sending the rest to c, with d in U_c."""
    n = lab.n
    if discrete:
        return [rng.randrange(n) for _ in range(n)]
    c = rng.randrange(n)
    d = rng.choice(list(bits(minimal[c])))
    keep = minimal[d]
    return [x if keep >> x & 1 else c for x in range(n)]


@lru_cache(maxsize=1)
def _strata_shapes():
    """One shape per slot: space, covers and refinement, drawn from a fixed
    stream, so that every seed does the same amount of work."""
    rng = random.Random("strata-shapes")
    shapes = []
    for source, n, band, t0, cover_band in STRATA_SPACES:
        for _ in range(100):  # some spaces have no cover in the band
            space, lab, minimal = _space(rng, source, n, band, t0)
            cover = _cover(rng, lab, minimal, cover_band)
            cover2 = _cover(rng, lab, minimal, cover_band)
            if cover and cover2:
                break
        else:
            raise RuntimeError(f"no {source} space of {n} points with covers in {cover_band}")
        fine = _cover(rng, lab, minimal, base=cover)
        shapes.append((space, lab, minimal, cover, fine, cover2, t0))
    return shapes


def _rename(value, names):
    if isinstance(value, str):
        return names.get(value, value)
    if isinstance(value, list):
        return [_rename(v, names) for v in value]
    if isinstance(value, dict):
        return {_rename(k, names): _rename(v, names) for k, v in value.items()}
    return value


def strata_round(seed):
    """The seed relabels the points of every slot's fixed shape (which
    changes every canonical order and representative), draws the point
    map of each square, and orders the sessions."""
    rng = random.Random(f"strata:{seed}")
    sessions = []
    for space, lab, minimal, cover, fine, cover2, t0 in _strata_shapes():
        f = _self_map(rng, lab, minimal, space["source"] == "discrete")
        ses = {
            "space": space,
            "cover": [lab.names_of(m) for m in cover],
            "fine": [lab.names_of(m) for m in fine],
            "cover2": [lab.names_of(m) for m in cover2],
            "f": {lab.names[x]: lab.names[f[x]] for x in range(lab.n)},
            "alt": t0 and len(opens_from_minimal(minimal)) <= ALT_OPENS,
        }
        names = dict(zip(lab.names, _labels(rng, lab.n, "p")))
        sessions.append(_rename(ses, names))
    # A chain stratified by all its nonempty opens has one class per point;
    # past the class bound standard_stratification must refuse.
    names = _labels(rng, REFUSAL_CHAIN, "c")
    chain = {"source": "poset", "points": names,
             "pairs": [[names[i], names[i + 1]] for i in range(REFUSAL_CHAIN - 1)]}
    ups = [sorted(names[i:]) for i in range(REFUSAL_CHAIN)]
    sessions.append({"space": chain, "cover": ups, "fine": ups, "cover2": None,
                     "f": None, "alt": False})
    rng.shuffle(sessions)
    return {"workload": "strata", "seed": seed, "sessions": sessions}


# ------------------------------------------------------------- calculus

CONE_POINTS = ["z1", "z2", "z3"]
QUERIES_PER_ARITY = 36
ORDER2_SHARE = 0.4
REPEAT_SHARE = 0.4  # queries that reuse an earlier component tuple
# (kind, dim, conjugated). One dimension-5 algebra per round: each costs
# about 2 s at seed; dimension 6 takes about 41 s and is left out.
ALGEBRAS = (
    ("abelian", 2, False), ("almost-abelian", 2, True),
    ("abelian", 3, False), ("heisenberg", 3, True), ("sl2", 3, True), ("almost-abelian", 3, True),
    ("abelian", 4, False), ("heisenberg", 4, True), ("sl2", 4, True), ("almost-abelian", 4, True),
    ("sl2", 5, True),
)


def _const(rng, lo=-3, hi=3, dens=(1, 2, 3, 4)):
    p = 0
    while p == 0:
        p = rng.randint(lo, hi)
    return ["const", str(Fraction(p, rng.choice(dens)))]


def _var(i):
    return ["var", i]


def _term(shape, rng, arity):
    """One component: ``shape`` picks the template and its variables,
    ``rng`` its constants."""
    i, j, k = (shape.randrange(arity) for _ in range(3))
    t = shape.randrange(8)
    c1, c2 = _const(rng), _const(rng)
    if t == 0:
        return ["add", ["mul", c1, ["pow", _var(i), 2]], ["mul", c2, _var(j)]]
    if t == 1:
        return ["mul", ["sin", ["mul", c1, _var(i)]], _var(j)]
    if t == 2:
        return ["sub", ["exp", ["mul", _const(rng, -2, 2, (2, 3, 4)), _var(i)]],
                ["mul", _var(j), _var(k)]]
    if t == 3:
        return ["div", ["mul", _var(i), _var(j)],
                ["add", _const(rng, 1, 3, (1, 2)), ["pow", _var(k), 2]]]
    if t == 4:
        return ["mul", ["cos", ["add", _var(i), c1]], ["pow", _var(j), 2]]
    if t == 5:
        return ["sub", ["mul", c1, ["pow", _var(i), 3]], ["mul", c2, ["mul", _var(j), _var(k)]]]
    if t == 6:
        return ["mul", ["exp", ["mul", _const(rng, -2, 2, (2, 3, 4)), _var(i)]], ["sin", _var(j)]]
    return ["div", ["pow", ["add", _var(i), c1], 2], ["add", _const(rng, 2, 3, (1,)), ["cos", _var(j)]]]


def render(node):
    """Source text of an expression tree in the documented language."""
    op = node[0]
    if op == "var":
        return f"x{node[1] + 1}"
    if op == "const":
        return f"({node[1]})"
    if op in ("sin", "cos", "exp"):
        return f"{op}({render(node[1])})"
    if op == "pow":
        return f"({render(node[1])})**{node[2]}"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    return f"({render(node[1])} {sym} {render(node[2])})"


def _coords(rng, arity, lo, hi):
    return [round(rng.uniform(lo, hi), 3) for _ in range(arity)]


def _rho(rng):
    """One constant table, or two pieces whose radius-0 table differs."""
    tables = []
    for _ in range(rng.randint(1, 2)):
        image = [rng.choice(CONE_POINTS) for _ in CONE_POINTS]
        tables.append(dict(zip(CONE_POINTS, image)))
    if len(tables) == 1:
        return [{"until": None, "table": tables[0]}]
    return [{"until": rng.choice([0.5, 1.0, 2.0]), "table": tables[0]},
            {"until": None, "table": tables[1]}]


def query(rng, arity, order, trees):
    rho = _rho(rng)
    if rng.random() < 1 / 3:
        cone, cone_limit = "star", "star"
    else:
        t, z = rng.choice([0.25, 1.0, 3.0]), rng.choice(CONE_POINTS)
        cone, cone_limit = {"t": t, "z": z}, {"t": t, "z": rho[0]["table"][z]}
    v = [0.0] * arity
    while not any(v):
        v = _coords(rng, arity, -1.0, 1.0)
    return {
        "arity": arity, "order": order, "trees": trees,
        "k": [render(t) for t in trees], "rho": rho,
        "x": _coords(rng, arity, -1.2, 1.2), "v": v, "cone": cone,
        "cone_limit": cone_limit,
        "tol": rng.choice([1e-6, 1e-7]) if order == 1 else None,
    }


def _conjugate(rng, dim, brackets):
    """Brackets in the basis e'_i = sum_j P[j][i] e_j for a random
    unimodular integer P (shears and a permutation), so Betti numbers
    are unchanged."""
    p = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    q = [row[:] for row in p]  # inverse of p
    for _ in range(2):
        i, j = rng.sample(range(dim), 2)
        s = rng.choice([-1, 1])
        p[i] = [a + s * b for a, b in zip(p[i], p[j])]      # row_i += s row_j
        for row in q:                                        # col_j -= s col_i
            row[j] -= s * row[i]
    perm = list(range(dim))
    rng.shuffle(perm)
    p = [[row[perm[c]] for c in range(dim)] for row in p]
    q = [q[perm[r]] for r in range(dim)]
    c = {}
    for a, b, coeffs in brackets:
        c[(a, b)] = [Fraction(x) for x in coeffs]
        c[(b, a)] = [-Fraction(x) for x in coeffs]
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            vec = [Fraction(0)] * dim
            for (a, b), coeffs in c.items():
                s = p[a][i] * p[b][j]
                if s == 0:
                    continue
                for l, cl in enumerate(coeffs):
                    if cl:
                        for k in range(dim):
                            vec[k] += s * cl * q[k][l]
            if any(vec):
                out.append([i, j, [str(x) for x in vec]])
    return out


def algebra(rng, kind, dim, conjugated):
    alg = {"kind": kind, "dim": dim}
    if kind == "abelian":
        brackets = []
    elif kind == "heisenberg":
        brackets = [[0, 1, [0, 0, 1] + [0] * (dim - 3)]]
    elif kind == "sl2":
        pad = [0] * (dim - 3)
        brackets = [[0, 1, [0, 2, 0] + pad], [0, 2, [0, 0, -2] + pad], [1, 2, [1, 0, 0] + pad]]
    else:
        diag = [rng.randint(-2, 2) for _ in range(dim - 1)]
        alg["diag"] = diag
        brackets = [[dim - 1, i, [d if k == i else 0 for k in range(dim)]]
                    for i, d in enumerate(diag) if d]
    if conjugated:
        brackets = _conjugate(rng, dim, brackets)
    alg["brackets"] = [[a, b, [str(x) for x in cs]] for a, b, cs in brackets]
    return alg


def calculus_round(seed):
    """Query shapes (orders, templates, which queries repeat a component
    tuple, the order of operations) come from a fixed stream, so that every seed parses and
    derives about the same amount; the seed draws every constant, point,
    direction, cone coordinate and cone action, and the algebras'
    conjugations."""
    shape = random.Random("calculus-shapes")
    rng = random.Random(f"calculus:{seed}")
    ops = []
    for arity in (1, 2, 3, 4):
        distinct = []
        second = round(ORDER2_SHARE * QUERIES_PER_ARITY)
        orders = [2] * second + [1] * (QUERIES_PER_ARITY - second)
        shape.shuffle(orders)
        for q, order in enumerate(orders):
            if distinct and q >= (1 - REPEAT_SHARE) * QUERIES_PER_ARITY:
                trees = distinct[shape.randrange(len(distinct))]
            else:
                trees = [_term(shape, rng, arity) for _ in range(arity)]
                distinct.append(trees)
            ops.append({"op": "derive", **query(rng, arity, order, trees)})
    for kind, dim, conjugated in ALGEBRAS:
        ops.append({"op": "complex", **algebra(rng, kind, dim, conjugated)})
    # The first query of a component tuple in this order parses it (a
    # cache miss); later ones hit.
    shape.shuffle(ops)
    return {"workload": "calculus", "seed": seed, "ops": ops}


# ------------------------------------------------------------------ cli

# The five malformed documents of ROADMAP item 5 (exit 1 with a traceback
# at seed; documented outcome exit 2) and one the CLI already refuses.
MALFORMED = ("opens-not-list", "poset-pair-short", "rho-not-object", "x-not-number",
             "bracket-div-zero", "cover-not-open")


def _explicit(rng, source, n, band):
    space, lab, minimal = _space(rng, source, n, band, True)
    opens = [lab.names_of(o) for o in sorted(opens_from_minimal(minimal))]
    rng.shuffle(opens)
    return {"source": "opens", "points": lab.names, "opens": opens}, lab, minimal


def _space_doc(space):
    return {"points": space["points"], "opens": space["opens"]}


def _query_doc(q):
    doc = {"spec": {"kind": "parametric", "k": q["k"], "rho": q["rho"],
                    "space_x": {"points": CONE_POINTS,
                                "opens": [[], ["z1"], ["z2"], ["z3"], ["z1", "z2"], ["z1", "z3"],
                                          ["z2", "z3"], CONE_POINTS]}},
           "point": {"x": q["x"], "v": q["v"], "cone": q["cone"]},
           "order": q["order"]}
    if q["tol"] is not None:
        doc["tol"] = q["tol"]
    return doc


def _lie_doc(alg):
    return {"dim": alg["dim"], "brackets": alg["brackets"]}


def cli_round(seed):
    """Commands with their documents; ``files`` maps names to documents."""
    rng = random.Random(f"cli:{seed}")
    files = {}
    cmds = []

    def add(kind, argv, expect, **check):
        cmds.append({"cmd": kind, "argv": argv, "expect": expect, **check})

    def put(name, doc):
        files[name] = doc
        return name

    # stratify: explicit families from 4 to 512 opens
    for i, (source, n, band) in enumerate([
        ("discrete", 2, None), ("poset", 6, (10, 24)), ("basis", 7, (20, 48)),
        ("poset", 9, (40, 100)), ("discrete", 7, None), ("basis", 12, (150, 320)),
        ("discrete", 9, None),
    ]):
        space, lab, minimal = _explicit(rng, source, n, band)
        cover = [lab.names_of(m) for m in _cover(rng, lab, minimal)]
        sp, cv = put(f"s{i}.json", _space_doc(space)), put(f"s{i}c.json", {"cover": cover})
        add("stratify", ["stratify", "--space", sp, "--cover", cv], 0, space=space, cover=cover)
    # limit: explicit families, three with coarsening witnesses
    for i, (source, n, band, witness) in enumerate([
        ("discrete", 3, None, False), ("poset", 8, (24, 64), False), ("basis", 10, (80, 200), False),
        ("discrete", 9, None, False), ("poset", 7, (12, 36), True), ("basis", 9, (40, 120), True),
        ("discrete", 8, None, True),
    ]):
        space, _, _ = _explicit(rng, source, n, band)
        sp = put(f"l{i}.json", _space_doc(space))
        add("limit", ["limit", "--space", sp] + (["--witness"] if witness else []), 0,
            space=space, witness=witness)
    # check-map: restricted and identity-stratification squares
    for i, (source, n, band, mode) in enumerate([
        ("discrete", 5, None, "restricted"), ("poset", 8, (16, 64), "restricted"),
        ("basis", 8, (16, 64), "restricted"), ("poset", 7, (12, 48), "identity-stratification"),
        ("discrete", 6, None, "identity-stratification"),
    ]):
        space, lab, minimal = _explicit(rng, source, n, band)
        cover1 = [lab.names_of(m) for m in _cover(rng, lab, minimal)]
        cover2 = [lab.names_of(m) for m in _cover(rng, lab, minimal)]
        f = _self_map(rng, lab, minimal, source == "discrete")
        f = {lab.names[x]: lab.names[f[x]] for x in range(lab.n)}
        sp = put(f"m{i}.json", _space_doc(space))
        c1, c2 = put(f"m{i}c1.json", {"cover": cover1}), put(f"m{i}c2.json", {"cover": cover2})
        mp = put(f"m{i}f.json", {"f": [[a, b] for a, b in sorted(f.items())], "mode": mode})
        covers = ["--cover", c1, "--cover", c2] if mode == "restricted" else ["--cover", c2]
        add("check-map", ["check-map", "--map", mp, "--space", sp, "--space", sp] + covers,
            None, space=space, cover1=cover1, cover2=cover2, f=f,
            mode="restricted" if mode == "restricted" else "identity-domain")
    # check-map with a discontinuous point map: documented exit 3
    pts = ["a", "b"]
    sp = put("md.json", {"points": pts, "opens": [[], ["a"], ["a", "b"]]})
    cv = put("mdc.json", {"cover": [["a", "b"]]})
    mp = put("mdf.json", {"f": [["a", "b"], ["b", "a"]], "mode": "restricted"})
    add("check-map", ["check-map", "--map", mp, "--space", sp, "--space", sp,
                      "--cover", cv, "--cover", cv], 3)
    # derive: arities 1-4, orders 1 and 2
    for i, (arity, order) in enumerate([(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2), (2, 1)]):
        q = query(rng, arity, order, [_term(rng, rng, arity) for _ in range(arity)])
        qp = put(f"d{i}.json", _query_doc(q))
        add("derive", ["derive", "--query", qp], None, query=q)
    # derive with a cone action that never settles: documented exit 4
    bounds = [2.0 ** (-k) for k in range(43, -1, -1)]
    pieces = [{"until": bounds[0], "table": {"z1": "z1", "z2": "z2"}}]
    for i in range(len(bounds) - 1):
        swap = i % 2 == 1
        pieces.append({"until": bounds[i + 1],
                       "table": {"z1": "z2", "z2": "z1"} if swap else {"z1": "z1", "z2": "z2"}})
    pieces.append({"until": None, "table": {"z1": "z1", "z2": "z2"}})
    qp = put("dn.json", {"spec": {"kind": "parametric", "k": ["x1**2"], "rho": pieces,
                                  "space_x": {"points": ["z1", "z2"],
                                              "opens": [[], ["z1"], ["z2"], ["z1", "z2"]]}},
                         "point": {"x": [3.0], "v": [1.0], "cone": {"t": 1.0, "z": "z1"}},
                         "tol": 1e-6})
    add("derive", ["derive", "--query", qp], 4)
    # cohomology: dimensions 2-4
    for i, (kind, dim, conj) in enumerate([
        ("almost-abelian", 2, True), ("heisenberg", 3, True), ("sl2", 3, False),
        ("abelian", 4, False), ("almost-abelian", 4, True),
    ]):
        alg = algebra(rng, kind, dim, conj)
        lp = put(f"g{i}.json", _lie_doc(alg))
        add("cohomology", ["cohomology", "--lie", lp], 0, alg=alg)
    add("selftest", ["selftest", "--seed", str(seed % 1000)], 0)
    # malformed documents
    put("x0.json", {"points": ["a", "b"], "opens": 5})
    put("xc.json", {"cover": [["a", "b"]]})
    add("stratify", ["stratify", "--space", "x0.json", "--cover", "xc.json"], 2, case=MALFORMED[0])
    put("x1.json", {"points": ["a", "b"], "poset": [["a"]]})
    add("limit", ["limit", "--space", "x1.json"], 2, case=MALFORMED[1])
    base = query(rng, 1, 1, [_term(rng, rng, 1)])
    bad = _query_doc(base)
    bad["spec"]["rho"] = [5]
    put("x2.json", bad)
    add("derive", ["derive", "--query", "x2.json"], 2, case=MALFORMED[2])
    bad = _query_doc(base)
    bad["point"]["x"] = ["abc"]
    put("x3.json", bad)
    add("derive", ["derive", "--query", "x3.json"], 2, case=MALFORMED[3])
    put("x4.json", {"dim": 2, "brackets": [[0, 1, ["1/0", "0"]]]})
    add("cohomology", ["cohomology", "--lie", "x4.json"], 2, case=MALFORMED[4])
    put("x5.json", {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]})
    put("x5c.json", {"cover": [["b"]]})
    add("stratify", ["stratify", "--space", "x5.json", "--cover", "x5c.json"], 2, case=MALFORMED[5])
    rng.shuffle(cmds)
    return {"workload": "cli", "seed": seed, "files": files, "cmds": cmds}


ROUNDS = {"strata": strata_round, "calculus": calculus_round, "cli": cli_round}
