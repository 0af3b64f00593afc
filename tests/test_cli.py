"""End-to-end command line runs against temporary documents."""

import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import stratcalc
from stratcalc.cli import main
from stratcalc.documents import MAX_LIE_DIM
from stratcalc.spaces import MAX_OPENS
from stratcalc.stratify import MAX_CLASSES


def write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_python(args, cwd, **env):
    """Run a fresh interpreter that imports this stratcalc checkout."""
    src = str(Path(stratcalc.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture
def w_docs(tmp_path):
    space = write(
        tmp_path / "space.json",
        {
            "points": ["a", "b", "c", "d"],
            "opens": [
                sorted(s)
                for s in map(
                    set,
                    [
                        "", "a", "b", "c", "d", "ab", "ac", "ad", "bc", "bd",
                        "cd", "abc", "abd", "acd", "bcd", "abcd",
                    ],
                )
            ],
        },
    )
    cover = write(
        tmp_path / "cover.json", {"cover": [["a", "b"], ["b", "c"], ["c", "d"]]}
    )
    return space, cover


class TestStratifyCommand:
    def test_running_example(self, w_docs, tmp_path, capsys):
        space, cover = w_docs
        out = tmp_path / "strat.json"
        dot = tmp_path / "hasse.dot"
        code = main(
            ["stratify", "--space", space, "--cover", cover,
             "--out", str(out), "--dot", str(dot)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert [c["id"] for c in doc["classes"]] == ["a", "b", "c", "d"]
        assert ["a", "b"] in doc["order"]["hasse"]
        assert '"d" -> "c";' in dot.read_text()

    def test_trivial_cover_single_node_dot(self, w_docs, tmp_path):
        space, _ = w_docs
        cover = write(tmp_path / "triv.json", {"cover": [["a", "b", "c", "d"]]})
        dot = tmp_path / "one.dot"
        code = main(
            ["stratify", "--space", space, "--cover", cover,
             "--out", str(tmp_path / "o.json"), "--dot", str(dot)]
        )
        assert code == 0
        assert "->" not in dot.read_text()

    def test_non_open_member_exits_2(self, tmp_path, capsys):
        space = write(
            tmp_path / "space.json",
            {"points": ["a", "b", "c", "d"],
             "basis": [["a", "b"], ["b", "c"], ["c", "d"]]},
        )
        cover = write(tmp_path / "cover.json", {"cover": [["a", "d"], ["a", "b", "c", "d"]]})
        code = main(["stratify", "--space", space, "--cover", cover,
                     "--out", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "member 0" in err and "'a', 'd'" in err


    def test_classes_limit_exits_2_promptly(self, tmp_path, capsys):
        # the 21 nonempty opens of a 21-point chain separate every point
        points = [f"p{i:02d}" for i in range(MAX_CLASSES + 1)]
        space = write(tmp_path / "chain.json",
                      {"points": points, "poset": [list(p) for p in zip(points, points[1:])]})
        cover = write(tmp_path / "cover.json",
                      {"cover": [points[i:] for i in range(len(points))]})
        start = time.perf_counter()
        assert main(["stratify", "--space", space, "--cover", cover]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == (f"error: {MAX_CLASSES + 1} classes exceed the up-set "
                       f"enumeration bound of {MAX_CLASSES}\n")


class TestLimitCommand:
    def test_discrete_running_example(self, w_docs, tmp_path):
        space, _ = w_docs
        out = tmp_path / "limit.json"
        code = main(["limit", "--space", space, "--out", str(out), "--witness"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert [c["id"] for c in doc["classes"]] == ["a", "b", "c", "d"]
        assert doc["order"]["hasse"] == []
        assert all(w["monotone"] for w in doc["witnesses"])

    def test_witness_run_builds_the_maximal_cover_once(self, w_docs, tmp_path, monkeypatch):
        calls = []
        real = stratcalc.refine.maximal_cover

        def counted(space):
            calls.append(space)
            return real(space)

        monkeypatch.setattr(stratcalc.refine, "maximal_cover", counted)
        space, _ = w_docs
        out = tmp_path / "limit.json"
        assert main(["limit", "--space", space, "--out", str(out), "--witness"]) == 0
        assert len(json.loads(out.read_text())["witnesses"]) == 15
        assert len(calls) == 1

    def test_chain_space(self, tmp_path):
        space = write(
            tmp_path / "chain.json", {"points": ["a", "b"], "poset": [["a", "b"]]}
        )
        out = tmp_path / "limit.json"
        assert main(["limit", "--space", space, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["order"]["hasse"] == [["a", "b"]]

    def test_empty_space_rejected(self, tmp_path, capsys):
        space = write(tmp_path / "empty.json", {"spec_zmod": 1})
        assert main(["limit", "--space", space]) == 2
        assert "nonempty" in capsys.readouterr().err

    def test_huge_spec_zmod_refused_promptly(self, tmp_path, capsys):
        # trial division of 2**61 - 1 would run for more than 20 s
        space = write(tmp_path / "huge.json", {"spec_zmod": 2**61 - 1})
        start = time.monotonic()
        assert main(["limit", "--space", space]) == 2
        assert time.monotonic() - start < 5
        assert "exceeds" in capsys.readouterr().err

    def test_opens_limit_exits_2_promptly(self, tmp_path, capsys):
        # 17 singletons generate the 2**17 opens of a discrete space
        points = [f"p{i}" for i in range(17)]
        space = write(tmp_path / "big.json", {"points": points, "basis": [[p] for p in points]})
        start = time.perf_counter()
        assert main(["limit", "--space", space]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == f"error: generated topology exceeds {MAX_OPENS} opens\n"

    def test_closure_witness_independent_of_hash_seed(self, tmp_path):
        # fifteen pairs of singletons fail union; the canonical first is named
        points = list("abcdefgh")
        opens = [[]] + [[p] for p in points[:6]] + [points]
        write(tmp_path / "bad.json", {"points": points, "opens": opens})
        runs = [
            run_python(
                ["-m", "stratcalc.cli", "limit", "--space", "bad.json"],
                tmp_path,
                PYTHONHASHSEED=seed,
            )
            for seed in ("1", "2")
        ]
        assert [r.returncode for r in runs] == [2, 2]
        assert runs[0].stderr == runs[1].stderr
        assert runs[0].stderr == "error: opens not closed under union: ['a'] | ['b']\n"


class TestCheckMapCommand:
    def test_identity_on_representatives(self, tmp_path):
        # partition cover; codomain is the representative set with its
        # singleton cover; the induced class map is the identity
        space1 = write(
            tmp_path / "s1.json",
            {"points": ["a", "b", "c", "d"],
             "opens": [sorted(s) for s in map(set, ["", "a", "b", "c", "d", "ab",
                       "ac", "ad", "bc", "bd", "cd", "abc", "abd", "acd", "bcd",
                       "abcd"])]},
        )
        cover1 = write(tmp_path / "c1.json", {"cover": [["a", "b"], ["c", "d"]]})
        space2 = write(
            tmp_path / "s2.json",
            {"points": ["a", "c"], "opens": [[], ["a"], ["c"], ["a", "c"]]},
        )
        cover2 = write(tmp_path / "c2.json", {"cover": [["a"], ["c"]]})
        mapdoc = write(
            tmp_path / "map.json",
            {"f": [["a", "a"], ["b", "a"], ["c", "c"], ["d", "c"]],
             "mode": "restricted"},
        )
        out = tmp_path / "square.json"
        code = main(
            ["check-map", "--map", mapdoc, "--space", space1, "--space", space2,
             "--cover", cover1, "--cover", cover2, "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["g_is_identity"] is True
        assert doc["commutes_on_domain"] is True
        assert doc["f_continuous"] is True

    def test_restricted_counterexample_reported(self, tmp_path):
        space1 = write(
            tmp_path / "s1.json",
            {"points": ["a", "b"], "opens": [[], ["a"], ["b"], ["a", "b"]]},
        )
        cover1 = write(tmp_path / "c1.json", {"cover": [["a", "b"]]})
        space2 = write(
            tmp_path / "s2.json",
            {"points": ["p", "q"], "opens": [[], ["p"], ["q"], ["p", "q"]]},
        )
        cover2 = write(tmp_path / "c2.json", {"cover": [["p"], ["q"]]})
        mapdoc = write(
            tmp_path / "map.json", {"f": [["a", "p"], ["b", "q"]]}
        )
        out = tmp_path / "square.json"
        code = main(
            ["check-map", "--map", mapdoc, "--space", space1, "--space", space2,
             "--cover", cover1, "--cover", cover2, "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["commutes_on_domain"] is True
        assert doc["commutes_everywhere"] is False
        assert doc["full_witness"][0] == "b"

    def test_identity_stratification_mode(self, tmp_path, w_docs):
        space, cover = w_docs
        mapdoc = write(
            tmp_path / "map.json",
            {"f": [["a", "b"], ["b", "b"], ["c", "c"], ["d", "c"]],
             "mode": "identity-stratification"},
        )
        out = tmp_path / "square.json"
        code = main(
            ["check-map", "--map", mapdoc, "--space", space, "--space", space,
             "--cover", cover, "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "identity-domain"
        assert doc["g"] == {"a": "b", "b": "b", "c": "c", "d": "c"}
        assert doc["commutes_everywhere"] is True

    def test_discontinuous_map_exits_3(self, tmp_path, capsys):
        space1 = write(
            tmp_path / "s1.json",
            {"points": ["a", "b"], "opens": [[], ["a", "b"]]},
        )
        cover1 = write(tmp_path / "c1.json", {"cover": [["a", "b"]]})
        space2 = write(
            tmp_path / "s2.json",
            {"points": ["p", "q"], "opens": [[], ["p"], ["q"], ["p", "q"]]},
        )
        cover2 = write(tmp_path / "c2.json", {"cover": [["p"], ["q"]]})
        mapdoc = write(tmp_path / "map.json", {"f": [["a", "p"], ["b", "q"]]})
        code = main(
            ["check-map", "--map", mapdoc, "--space", space1, "--space", space2,
             "--cover", cover1, "--cover", cover2,
             "--out", str(tmp_path / "o.json")]
        )
        assert code == 3
        assert "not continuous" in capsys.readouterr().err


class TestDeriveCommand:
    def test_identity_query(self, tmp_path):
        query = write(
            tmp_path / "q.json",
            {
                "spec": {
                    "kind": "obvious",
                    "arity": 1,
                    "space_x": {"points": ["z1"], "opens": [[], ["z1"]]},
                },
                "point": {"x": [3.0], "v": [1.0],
                          "cone": {"t": 0.5, "z": "z1"}},
            },
        )
        out = tmp_path / "report.json"
        assert main(["derive", "--query", query, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["derivable"] is True
        assert doc["residual"] < 1e-9
        assert abs(doc["value"]["w"][0] - 1.0) < 1e-9

    def test_square_query(self, tmp_path):
        query = write(
            tmp_path / "q.json",
            {
                "spec": {
                    "kind": "parametric",
                    "k": ["x1**2"],
                    "rho": [{"until": None, "table": {"z1": "z1"}}],
                    "space_x": {"points": ["z1"], "opens": [[], ["z1"]]},
                },
                "point": {"x": [3.0], "v": [1.0], "cone": "star"},
                "tol": 1e-6,
            },
        )
        out = tmp_path / "report.json"
        assert main(["derive", "--query", query, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["value"]["w"][0] - 6.0) < 1e-6

    def test_never_settling_action_exits_4(self, tmp_path, capsys):
        bounds = [2.0 ** (-k) for k in range(43, -1, -1)]
        pieces = [{"until": bounds[0], "table": {"z1": "z1", "z2": "z2"}}]
        for i in range(len(bounds) - 1):
            table = (
                {"z1": "z1", "z2": "z2"} if i % 2 == 0
                else {"z1": "z2", "z2": "z1"}
            )
            pieces.append({"until": bounds[i + 1], "table": table})
        pieces.append({"until": None, "table": {"z1": "z1", "z2": "z2"}})
        query = write(
            tmp_path / "q.json",
            {
                "spec": {
                    "kind": "parametric",
                    "k": ["x1**2"],
                    "rho": pieces,
                    "space_x": {
                        "points": ["z1", "z2"],
                        "opens": [[], ["z1"], ["z2"], ["z1", "z2"]],
                    },
                },
                "point": {"x": [3.0], "v": [1.0],
                          "cone": {"t": 1.0, "z": "z1"}},
                "tol": 1e-6,
            },
        )
        out = tmp_path / "report.json"
        code = main(["derive", "--query", query, "--out", str(out)])
        assert code == 4
        doc = json.loads(out.read_text())
        assert doc["derivable"] is False
        assert "settle" in capsys.readouterr().err

    def test_second_order_query(self, tmp_path):
        query = write(
            tmp_path / "q.json",
            {
                "spec": {
                    "kind": "parametric",
                    "k": ["x1**2"],
                    "rho": [{"until": None, "table": {"z1": "z1"}}],
                    "space_x": {"points": ["z1"], "opens": [[], ["z1"]]},
                },
                "point": {"x": [3.0], "v": [1.0], "cone": "star"},
                "order": 2,
            },
        )
        out = tmp_path / "report.json"
        assert main(["derive", "--query", query, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["route"] == "scheme-map"
        assert abs(doc["bilinear"][0] - 2.0) < 1e-3

    def test_tolerance_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRATCALC_TOL", "1e-6")
        query = write(
            tmp_path / "q.json",
            {
                "spec": {
                    "kind": "obvious",
                    "arity": 1,
                    "space_x": {"points": ["z1"], "opens": [[], ["z1"]]},
                },
                "point": {"x": [0.0], "v": [1.0], "cone": "star"},
            },
        )
        out = tmp_path / "report.json"
        assert main(["derive", "--query", query, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["tol"] == 1e-6


    def _parametric_query(self, tmp_path, component):
        return write(
            tmp_path / "q.json",
            {
                "spec": {
                    "kind": "parametric",
                    "k": [component],
                    "rho": [{"until": None, "table": {"z1": "z1"}}],
                    "space_x": {"points": ["z1"], "opens": [[], ["z1"]]},
                },
                "point": {"x": [3.0], "v": [1.0], "cone": "star"},
            },
        )

    def test_expression_is_never_executed(self, tmp_path, capsys):
        marker = tmp_path / "marker"
        query = self._parametric_query(
            tmp_path, f"__import__('os').system('touch {marker}') or x1"
        )
        assert main(["derive", "--query", query]) == 2
        assert not marker.exists()
        assert "disallowed" in capsys.readouterr().err

    def test_power_tower_refused_promptly(self, tmp_path, capsys):
        query = self._parametric_query(tmp_path, "9**9**9*x1")
        start = time.perf_counter()
        assert main(["derive", "--query", query]) == 2
        assert time.perf_counter() - start < 1.0
        assert "exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("component, constant", [
        ("(-1)**(1/2)", "ImaginaryUnit"),
        ("1/(x1-x1)", "ComplexInfinity"),
        ("0**(-1)", "ComplexInfinity"),
        ("(x1*0)**(-1)", "ComplexInfinity"),
        ("exp(1)", "Exp1"),
    ])
    def test_built_tree_refusal_exits_2_in_one_line(self, tmp_path, capsys, component,
                                                    constant):
        query = self._parametric_query(tmp_path, component)
        assert main(["derive", "--query", query]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and constant in err


BAD_ORDERS = (0, 3, 1.5, "2", True, "x", None)


@pytest.fixture(scope="module")
def bad_order_runs(tmp_path_factory):
    """Exit code, seconds, stderr and whether sympy is loaded after each
    bad-order query, run through cli.main in one fresh interpreter."""
    tmp_path = tmp_path_factory.mktemp("orders")
    spec = {"kind": "parametric", "k": ["x1**2"],
            "rho": [{"until": None, "table": {"z1": "z1"}}],
            "space_x": {"points": ["z1"], "opens": [[], ["z1"]]}}
    queries = [
        write(tmp_path / f"q{i}.json",
              {"spec": spec, "point": {"x": [3.0], "v": [1.0]}, "order": order})
        for i, order in enumerate(BAD_ORDERS)
    ]
    code = (
        "import contextlib, io, json, sys, time\n"
        "from stratcalc import cli\n"
        "runs = []\n"
        f"for query in {queries!r}:\n"
        "    err = io.StringIO()\n"
        "    start = time.perf_counter()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        code = cli.main(['derive', '--query', query])\n"
        "    runs.append([code, time.perf_counter() - start, err.getvalue(),\n"
        "                 'sympy' in sys.modules])\n"
        "print(json.dumps(runs))\n"
    )
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(map(json.dumps, BAD_ORDERS), json.loads(proc.stdout)))


@pytest.mark.parametrize("order", map(json.dumps, BAD_ORDERS))
def test_bad_derive_order_exits_2_before_the_spec_loads(bad_order_runs, order):
    code, seconds, err, sympy_loaded = bad_order_runs[order]
    assert code == 2
    assert seconds < 1.0
    assert err == f"error: query: order must be the integer 1 or 2, got {order}\n"
    assert not sympy_loaded


def test_poset_witnesses_independent_of_hash_seed(tmp_path):
    # several unknown pairs and several indistinguishable pairs: the least
    # of each is named, whatever the set iteration order
    code = (
        "from stratcalc import (InputError, Poset, StructuralError,\n"
        "                       generate_topology, identity_stratification)\n"
        "try:\n"
        "    Poset(('a', 'b'), {('a', 'a'), ('b', 'b'), ('a', 'x'), ('y', 'b'), ('q', 'a')})\n"
        "except InputError as exc:\n"
        "    print(exc)\n"
        "space = generate_topology('abcdef', [{'c', 'd'}, {'b', 'e', 'f'}, {'a'}])\n"
        "try:\n"
        "    identity_stratification(space)\n"
        "except StructuralError as exc:\n"
        "    print(exc, exc.witness)\n"
    )
    runs = [run_python(["-c", code], tmp_path, PYTHONHASHSEED=seed) for seed in ("1", "2")]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout == (
        "relation pair (a, x) has unknown elements\n"
        "identity stratification needs a T0 space; b and e are topologically "
        "indistinguishable ('b', 'e')\n"
    )


class TestCohomologyCommand:
    def test_sl2(self, tmp_path):
        lie = write(
            tmp_path / "sl2.json",
            {
                "dim": 3,
                "basis": ["h", "e", "f"],
                "brackets": [
                    [0, 1, ["0", "2", "0"]],
                    [0, 2, ["0", "0", "-2"]],
                    [1, 2, ["1", "0", "0"]],
                ],
            },
        )
        out = tmp_path / "betti.json"
        assert main(["cohomology", "--lie", lie, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["betti"] == [1, 0, 0, 1]

    def test_abelian_dim_3(self, tmp_path):
        lie = write(tmp_path / "ab3.json", {"dim": 3, "brackets": []})
        out = tmp_path / "betti.json"
        assert main(["cohomology", "--lie", lie, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["betti"] == [1, 3, 3, 1]

    def test_jacobi_violation_exits_2(self, tmp_path, capsys):
        lie = write(
            tmp_path / "bad.json",
            {
                "dim": 3,
                "brackets": [[0, 1, ["0", "0", "1"]], [2, 0, ["1", "0", "0"]]],
            },
        )
        assert main(["cohomology", "--lie", lie]) == 2
        err = capsys.readouterr().err
        assert "Jacobi" in err and "(0, 1, 2)" in err


    @pytest.mark.parametrize("coefficient", ["1e999999", "1e-65", "1" * 200000])
    def test_oversized_coefficient_exits_2_promptly(self, tmp_path, capsys, coefficient):
        lie = write(tmp_path / "big.json",
                    {"dim": 2, "brackets": [[0, 1, [coefficient, "0"]]]})
        start = time.perf_counter()
        assert main(["cohomology", "--lie", lie]) == 2
        assert time.perf_counter() - start < 1.0
        assert "coefficient" in capsys.readouterr().err

    @pytest.mark.parametrize("offset, code", [(1, 2), (0, 0)])
    def test_dimension_limit(self, tmp_path, capsys, offset, code):
        dim = MAX_LIE_DIM + offset
        lie = write(tmp_path / "ab.json", {"dim": dim, "brackets": []})
        out = tmp_path / "c.json"
        start = time.perf_counter()
        assert main(["cohomology", "--lie", lie, "--out", str(out)]) == code
        if code:
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert f"dimension {dim} exceeds the limit of {MAX_LIE_DIM}" in err
            assert len(err.strip().splitlines()) == 1
        else:
            assert json.loads(out.read_text())["betti"] == [comb(dim, k) for k in range(dim + 1)]

    def test_coefficient_at_the_limits(self, tmp_path):
        lie = write(tmp_path / "edge.json",
                    {"dim": 2, "brackets": [[0, 1, ["1e-64", "0" * 64]]]})
        assert main(["cohomology", "--lie", lie, "--out", str(tmp_path / "c.json")]) == 0


class TestSelftestCommand:
    def test_fixed_seed_is_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["selftest", "--seed", "7", "--out", str(out1)]) == 0
        assert main(["selftest", "--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert "seed=7" in text and "config=" in text
        assert "PASS" in text

    def test_nonzero_counts_reported(self, capsys):
        assert main(["selftest", "--seed", "0"]) == 0
        text = capsys.readouterr().out
        for name in ("spaces", "stratify", "refine", "squares", "cones",
                     "derive", "forms"):
            assert f"{name}: PASS" in text

    def test_injected_fault_fails(self, capsys):
        assert main(["selftest", "--seed", "0", "--inject-fault"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_sabotaged_oracle_fails_under_optimize(self, tmp_path):
        # python -O strips assert statements; the suites must still fail
        code = (
            "import sys\n"
            "from stratcalc import cli, selftest\n"
            "selftest.ce_oracle = lambda g, omega: None\n"
            "sys.exit(cli.main(['selftest', '--seed', '0']))\n"
        )
        proc = run_python(["-O", "-c", code], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "forms: FAIL" in proc.stdout
        assert proc.stdout.endswith("result: FAIL\n")


CALCULUS_MODULES = ("cones", "derive", "exprfn", "forms", "selftest")


def loaded_after(tmp_path, *argvs):
    """stratcalc submodules and sympy loaded by a fresh interpreter that
    imports stratcalc.cli and runs each argv through cli.main in-process."""
    code = (
        "import json, sys\n"
        "from stratcalc import cli\n"
        f"for argv in {list(argvs)!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(json.dumps(sorted(m.rpartition('.')[2] for m in sys.modules\n"
        "                        if m.startswith('stratcalc.') or m == 'sympy')))\n"
    )
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_does_not_load_sympy(tmp_path):
    code = "import sys, stratcalc.cli; print('sympy' in sys.modules)"
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    assert loaded_after(tmp_path).isdisjoint(CALCULUS_MODULES)


def test_topology_commands_load_no_calculus(tmp_path, w_docs):
    space, cover = w_docs
    mapdoc = write(tmp_path / "map.json", {"f": [[p, p] for p in "abcd"],
                                           "mode": "identity-stratification"})
    out = str(tmp_path / "out.json")
    loaded = loaded_after(
        tmp_path,
        ["stratify", "--space", space, "--cover", cover, "--out", out],
        ["limit", "--space", space, "--witness", "--out", out],
        ["check-map", "--map", mapdoc, "--space", space, "--space", space,
         "--cover", cover, "--out", out],
    )
    assert {"stratify", "refine", "squares", "documents"} <= loaded
    assert loaded.isdisjoint(CALCULUS_MODULES + ("sympy",))


def test_cohomology_loads_forms_not_derive(tmp_path):
    lie = write(tmp_path / "ab2.json", {"dim": 2, "brackets": [[0, 1, ["1", "0"]]]})
    loaded = loaded_after(tmp_path, ["cohomology", "--lie", lie, "--out", str(tmp_path / "c.json")])
    assert "forms" in loaded
    assert loaded.isdisjoint({"cones", "derive", "selftest", "sympy"})


class TestDeriveNameGuard:
    """Loading the submodule stratcalc.derive must not hide the function
    stratcalc.derive, whichever import comes first, and the package is a
    plain module once the submodule is loaded."""

    CHECK = ("import sys\nassert stratcalc.derive is sys.modules['stratcalc.derive'].derive\n"
             "assert type(stratcalc) is type(sys)\n")

    def run(self, tmp_path, code):
        proc = run_python(["-c", code + "import stratcalc\n" + self.CHECK], tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_submodule_first(self, tmp_path):
        self.run(tmp_path, "import stratcalc.derive\nfrom stratcalc import derive\n"
                           "assert callable(derive) and derive.__name__ == 'derive'\n")

    def test_cli_derive_first(self, tmp_path):
        query = write(tmp_path / "q.json", {
            "spec": {"kind": "obvious", "arity": 1,
                     "space_x": {"points": ["z1"], "opens": [[], ["z1"]]}},
            "point": {"x": [3.0], "v": [1.0], "cone": "star"},
        })
        self.run(tmp_path, "from stratcalc import cli\n"
                           f"assert cli.main(['derive', '--query', {query!r}, '--out', 'r.json']) == 0\n")

    def test_readme_library_example(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        assert "sc.derive(" in example
        self.run(tmp_path, example)


def test_unreadable_document_exits_2(tmp_path, capsys):
    assert main(["limit", "--space", str(tmp_path / "missing.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    lie = tmp_path / "big.json"
    lie.write_text('{"dim": 2, "brackets": [[0, 1, [' + "1" * 5000 + ", 0]]]}")
    assert main(["cohomology", "--lie", str(lie)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


MALFORMED_MEMBERS = (
    ("stratify", "cover", {"cover": [5]}),
    ("stratify", "cover", {"cover": [[["a"]]]}),
    ("stratify", "cover", {"cover": [["a", 5]]}),
    ("stratify", "cover", {"cover": ["ab"]}),
    ("limit", "poset", {"points": ["a", "b"], "poset": [["a", ["b"]]]}),
    ("limit", "poset", {"points": ["a", "b"], "poset": ["ab"]}),
    ("limit", "opens", {"points": ["a", "b"], "opens": [[], "a", ["a", "b"]]}),
    ("limit", "basis", {"points": ["a", "b"], "basis": ["ab"]}),
)


@pytest.mark.parametrize("command, field, doc", MALFORMED_MEMBERS)
def test_member_that_is_not_a_list_of_names_exits_2(tmp_path, command, field, doc):
    space = {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}
    if command == "stratify":
        argv = ["--space", write(tmp_path / "s.json", space),
                "--cover", write(tmp_path / "c.json", doc)]
    else:
        argv = ["--space", write(tmp_path / "s.json", doc)]
    proc = run_python(["-m", "stratcalc.cli", command, *argv], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert f"members of {field!r} must be lists of point names" in proc.stderr


MALFORMED_TOPOLOGY = (
    ("check-map", {"f": [[["a"], "b"]]}, "entries of f must pair two point names"),
    ("check-map", {"f": [["a", "a"], ["b", "b"]], "representatives": 5},
     "representatives must be a list of point names"),
    ("limit", {"spec_zmod": 6, "points": 5}, "field 'points' has the wrong type"),
    ("limit", {"spec_zmod": 6, "points": [1, "p2"]}, "points must be strings"),
)


@pytest.mark.parametrize("command, doc, message", MALFORMED_TOPOLOGY)
def test_malformed_topology_document_exits_2(tmp_path, command, doc, message):
    if command == "check-map":
        space = write(tmp_path / "s.json", {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]})
        cover = write(tmp_path / "c.json", {"cover": [["a", "b"]]})
        argv = ["--map", write(tmp_path / "m.json", doc),
                "--space", space, "--space", space, "--cover", cover, "--cover", cover]
    else:
        argv = ["--space", write(tmp_path / "s.json", doc)]
    proc = run_python(["-m", "stratcalc.cli", command, *argv], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert message in proc.stderr
