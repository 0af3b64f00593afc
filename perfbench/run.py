"""stratcalc benchmark.

    python3 perfbench/run.py --workload {strata,calculus,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.
Workloads (why each exists is in perfbench/README.md):

- strata: a library session generating and querying finite topologies;
- calculus: a library session of derive queries and de Rham complexes;
- cli: one fresh `python -m stratcalc.cli` process per command.

Load is closed-loop from one caller. Work comes in rounds: one round is a
fixed list of operations drawn from the seed, run in a fresh interpreter
(a worker process, or one CLI process per command), so program caches
start cold every round. Rounds repeat while at least half of another
one fits in --seconds of operation time; every round of one seed must
give byte-identical results. Each operation's latency is the least over
the rounds.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics, including the
tracing overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `correct` is false when
a result disagrees with its oracle, when an oracle misses a planted
wrong result, or when one seed gives different results; `failed` also
counts unexpected exit codes and exceptions.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracles as orc  # noqa: E402

SETUP_SAMPLES = 9
CHILD_TIMEOUT = 60.0
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
LAYERS = ("spaces", "stratify", "refine", "squares", "exprfn", "derive", "derive2", "forms")
CLI_COMMANDS = ("stratify", "limit", "check-map", "derive", "cohomology", "selftest")

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


def per_layer_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
    units.update({
        "spaces.opens": "count", "spaces.points": "count",
        "stratify.classes": "count", "stratify.upsets": "count", "stratify.refused": "count",
        "refine.limit_classes": "count", "refine.section_injective_ratio": "ratio",
        "refine.section_monotone_ratio": "ratio",
        "squares.commutes_everywhere_ratio": "ratio", "squares.g_monotone_ratio": "ratio",
        "exprfn.distinct": "count",
        "derive.steps": "count", "derive.probes": "count", "derive.probe_ok_ratio": "ratio",
        "derive.derivable_ratio": "ratio", "derive2.derivable_ratio": "ratio",
        "forms.entries": "count", "forms.nonzeros": "count",
        "cli.start_s": "s", "cli.import_s": "s", "cli.main_s": "s",
        "documents.load_s": "s", "documents.dump_s": "s", "documents.bytes": "bytes",
    })
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.p50_ms"] = "ms"
    for code in ("exit0", "exit2", "exit3", "exit4", "exit_other"):
        units[f"cli.{code}"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = per_layer_units()


# ------------------------------------------------------------------ helpers


def tail_percentile(samples_per_round):
    """Highest listed percentile with at least ten samples beyond it in one round."""
    return max(p for p in PERCENTILES if samples_per_round * (100 - p) / 100 >= 10)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def child_env(src, workload, seed):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONHOME", "PYTHONOPTIMIZE", "STRATCALC_TOL")}
    env["PYTHONPATH"] = src
    hashed = hashlib.sha256(f"{workload}:{seed}".encode()).hexdigest()
    env["PYTHONHASHSEED"] = str(int(hashed, 16) % 4294967296)
    return env


def run_child(argv, env, cwd):
    """Run to completion (killed and reaped past the timeout); returns
    (exit code, stdout bytes, stderr bytes, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err + b"\ntimed out", time.perf_counter() - start
    return proc.returncode, out, err, time.perf_counter() - start


def setup_sample(env, cwd):
    """Wall time of a fresh interpreter importing the package and the CLI."""
    code, _, err, wall = run_child([sys.executable, "-c", "import stratcalc, stratcalc.cli"], env, cwd)
    if code != 0:
        raise SystemExit(f"error: importing stratcalc failed: {err.decode(errors='replace')}")
    return wall


def self_times(spans):
    """Per-layer busy time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    busy = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            busy[name] = busy.get(name, 0.0) + (end - start) - child[i]
    return busy


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------- judging


def judge_library(spec, rec):
    """Problems with one library operation's record; empty when correct."""
    kind, err, doc = rec["op"], rec["error"], rec["doc"]
    if spec["workload"] == "calculus":
        q = spec["ops"][rec["i"]]
        if err:
            return [f"unexpected {err}"]
        if kind == "complex":
            return orc.check_complex(q, doc)
        return (orc.check_derivative if kind == "derive1" else orc.check_second)(q, doc)
    ses = spec["sessions"][rec["i"]]
    space = ses["space"]
    if kind == "stratify":
        lab, _ = orc.minimal_of_space(space)
        q, _ = orc.cover_quotient(lab, [lab.mask(m) for m in ses["cover"]])
        if len(q.classes) > orc.CLASS_BOUND:
            return [] if err and err.startswith("InputError") else ["expected a refusal past the class bound"]
    if err:
        return [f"unexpected {err}"]
    if kind == "space":
        return orc.check_space(space, doc)
    if kind == "stratify":
        return orc.check_stratify(space, ses["cover"], doc, doc.get("formulas"))
    if kind == "refine":
        return orc.check_limit(space, doc, [ses["cover"]])
    if kind == "section":
        return orc.check_section(space, ses["cover"], ses["fine"], doc)
    lab, minimal = orc.minimal_of_space(space)
    if not orc.is_monotone(minimal, [lab.index[ses["f"][p]] for p in lab.names]):
        return ["generated map is not continuous"]
    mode = "restricted" if kind == "square" else "identity-domain"
    return orc.check_square(space, ses["cover"], ses["cover2"], ses["f"], doc, mode)


def judge_cli(cmd, res):
    """Problems with one CLI command's (exit code, stdout); empty when correct."""
    code, out = res["code"], res["stdout"]
    kind = cmd["cmd"]
    if "case" in cmd or cmd["expect"] == 3 and kind == "check-map":
        problems = [] if code == cmd["expect"] else [f"exit {code}, expected {cmd['expect']}"]
        if out:
            problems.append("unexpected output")
        return problems
    if kind == "selftest":
        lines = out.decode(errors="replace").splitlines()
        ok = code == 0 and lines[-1:] == ["result: PASS"] and any(
            line.startswith(f"seed={cmd['argv'][-1]} ") for line in lines)
        return [] if ok else [f"selftest exit {code}: {lines[-1:]}"]
    try:
        doc = json.loads(out)
    except ValueError:
        return [f"exit {code} without a result document"]
    if kind == "derive":
        want = cmd["expect"] if cmd["expect"] is not None else (0 if doc.get("derivable") else 4)
        problems = [] if code == want else [f"exit {code}, expected {want}"]
        if "query" not in cmd:
            return problems + ([] if doc.get("derivable") is False else ["never-settling action derived"])
        check = orc.check_derivative if cmd["query"]["order"] == 1 else orc.check_second
        return problems + check(cmd["query"], doc)
    if kind == "check-map":
        problems = orc.check_square(cmd["space"], cmd["cover1"], cmd["cover2"], cmd["f"], doc, cmd["mode"])
        want = 0 if doc.get("f_continuous") else 3
        return problems + ([] if code == want else [f"exit {code}, expected {want}"])
    problems = [] if code == cmd["expect"] else [f"exit {code}, expected {cmd['expect']}"]
    if kind == "stratify":
        return problems + orc.check_stratify(cmd["space"], cmd["cover"], doc)
    if kind == "limit":
        return problems + orc.check_limit(cmd["space"], doc, "witness" if cmd["witness"] else None)
    return problems + orc.check_complex(cmd["alg"], doc)


# Planted wrong results, one per oracle: each must be judged a failure.
# A planter returns False when a record does not suit it (say, a
# not-derivable report has no value to corrupt).
def _plant_library(kind, rec):
    doc = rec["doc"]
    if kind == "stratify" and rec["error"]:
        rec["error"], rec["doc"] = None, {}
    elif rec["error"]:
        return False
    elif kind == "space":
        doc["opens"].pop()
    elif kind == "stratify":
        doc["continuity"]["up_sets"] += 1
    elif kind == "refine":
        doc["order"]["full"].pop()
    elif kind == "section":
        doc["injective"] = not doc["injective"]
    elif kind in ("square", "alt"):
        doc["g_monotone"] = not doc["g_monotone"]
    elif kind == "complex":
        doc["betti"][0] += 1
    elif not doc["derivable"]:
        return False
    elif kind == "derive1":
        doc["value"]["w"][0] += 1e-2 * max(1.0, abs(doc["value"]["w"][0]))
    else:
        doc["bilinear"][0] += 0.5
    return True


def _plant_cli(kind, res):
    if kind in ("malformed", "exit"):
        res["code"] = 1
        return True
    if kind == "selftest":
        res["stdout"] = res["stdout"].replace(b"result: PASS", b"result: FAIL")
        return True
    doc = json.loads(res["stdout"])
    if kind == "cohomology":
        doc["betti"][-1] += 1
    elif kind in ("stratify", "limit"):
        doc["classes"][0]["members"].append("zzz")
    elif kind == "check-map":
        doc["g_monotone"] = not doc["g_monotone"]
    elif doc.get("order") == 2 or not doc["derivable"]:
        return False
    else:
        doc["value"]["w"][0] += 1e-2 * max(1.0, abs(doc["value"]["w"][0]))
    res["stdout"] = json.dumps(doc).encode()
    return True


def _cli_kind(rec, cmd):
    if "case" in cmd:
        return "malformed"
    return "exit" if cmd["cmd"] == "check-map" and cmd["expect"] == 3 else cmd["cmd"]


def self_check(judged, judge, plant, key):
    """Feed every oracle one deliberately wrong result, made from a
    correct one of this run; return the kinds whose planted result was
    not judged a failure, and the kinds tried."""
    missed, seen = [], set()
    for rec, subject, ok, _ in judged:
        kind = key(rec, subject)
        if kind in seen or not ok:
            continue
        bad = copy.deepcopy(rec)
        if not plant(kind, bad):
            continue
        seen.add(kind)
        if not judge(subject, bad):
            missed.append(kind)
    return missed, sorted(seen)


# ------------------------------------------------------------------ rounds


class Run:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.src = os.path.join(root, "src")
        self.env = child_env(self.src, args.workload, args.seed)
        self.work = os.path.join(root, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.spec = gen.ROUNDS[args.workload](args.seed)
        self.rounds = []          # dicts: traced, op_s (list), counts, digest, ...
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.checked_digest = None
        self.bite = None
        self.setup = []           # set-up samples, seconds

    def note(self, msg):
        self.problems.append(msg)

    def account(self, judged):
        """Count failures; a result that disagrees with its oracle (not
        merely an unexpected exit code or exception) also makes the run
        incorrect."""
        self.attempted += len(judged)
        for rec, _, ok, problems in judged:
            if ok:
                continue
            self.failed += 1
            if any(not p.startswith(("unexpected", "exit")) for p in problems):
                self.wrong += 1
            if len(self.problems) < 20:
                what = rec.get("op") or rec.get("cmd")
                self.note(f"{what} #{rec['i']}: {'; '.join(problems)}")

    def check_round(self, rnd, records, judge, subject_of):
        """Judge the first round's records; later rounds must reproduce its
        digest, and then share its verdicts."""
        if self.checked_digest is not None and rnd["digest"] == self.checked_digest[0]:
            judged = self.checked_digest[1]
        else:
            judged = []
            for rec in records:
                subject = subject_of(rec)
                problems = judge(subject, rec)
                judged.append((rec, subject, not problems, problems))
            if self.checked_digest is None:
                self.checked_digest = (rnd["digest"], judged)
            else:
                self.note("non-determinism: a round of the same seed gave different results")
                self.wrong += 1
        self.account(judged)
        return judged

    # -- library workloads

    def library_round(self, traced):
        round_path = os.path.join(self.work, "round.json")
        if not os.path.exists(round_path):
            with open(round_path, "w", encoding="utf-8") as fh:
                json.dump(self.spec, fh)
        out_path = os.path.join(self.work, "result.json")
        code, _, err, _ = run_child(
            [sys.executable, os.path.join(HERE, "worker.py"), round_path, out_path, "1" if traced else "0"],
            self.env, self.work)
        if code != 0:
            raise SystemExit(f"error: worker failed: {err.decode(errors='replace')[-2000:]}")
        with open(out_path, encoding="utf-8") as fh:
            out = json.load(fh)
        os.remove(out_path)
        if not os.path.abspath(out["module"]).startswith(self.src + os.sep):
            raise SystemExit(f"error: stratcalc imported from {out['module']}, not from ./src")
        records = out["records"]
        rnd = {
            "traced": traced,
            "op_s": [r["s"] for r in records],
            "counts": out["counts"],
            "rss_mb": out["rss_kb"] / 1024,
            "busy": self_times(out["spans"]),
            "digest": digest([r["op"], r["i"], r["error"], r["doc"]] for r in records),
        }
        judged = self.check_round(rnd, records, judge_library, lambda rec: self.spec)
        if self.bite is None:
            self.bite = self_check(judged, judge_library, _plant_library, lambda rec, subj: rec["op"])
        if traced and not any(r["traced"] for r in self.rounds):
            with open(self.trace_path(), "w", encoding="utf-8") as fh:
                json.dump(out["spans"], fh)
        return rnd

    def trace_path(self):
        return os.path.join(self.root, ".perfbench", f"{self.args.workload}-{self.args.seed}.spans.json")

    # -- cli workload

    def cli_round(self, traced):
        docs = os.path.join(self.work, "docs")
        if not os.path.isdir(docs):
            os.makedirs(docs)
            for name, doc in self.spec["files"].items():
                with open(os.path.join(docs, name), "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
        stats_path = os.path.join(self.work, "traced.json")
        results, layer = [], {}
        for i, cmd in enumerate(self.spec["cmds"]):
            if traced:
                argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), stats_path, *cmd["argv"]]
                env = dict(self.env, PERFBENCH_SPAWN=repr(time.monotonic()))
            else:
                argv, env = [sys.executable, "-m", "stratcalc.cli", *cmd["argv"]], self.env
            code, out, _, wall = run_child(argv, env, docs)
            results.append({"cmd": cmd["cmd"], "i": i, "code": code, "stdout": out, "s": wall})
            if traced and os.path.exists(stats_path):
                with open(stats_path, encoding="utf-8") as fh:
                    for k, v in json.load(fh).items():
                        layer[k] = layer.get(k, 0.0) + v
                os.remove(stats_path)
        rnd = {
            "traced": traced,
            "op_s": [r["s"] for r in results],
            "results": results,
            "layer": layer,
            "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "digest": digest([r["code"], r["stdout"].decode(errors="replace")] for r in results),
        }
        judged = self.check_round(rnd, results, judge_cli, lambda rec: self.spec["cmds"][rec["i"]])
        if self.bite is None:
            self.bite = self_check(judged, judge_cli, _plant_cli, _cli_kind)
        return rnd

    def run_rounds(self):
        """Rounds while at least half of another round fits in --seconds of
        operation time (at least one; with --trace 1 whole pairs of an
        untraced and a traced round). Untraced runs take two set-up samples
        before each round, up to SETUP_SAMPLES (topped up at the end), so
        that the samples spread over the run."""
        one = self.cli_round if self.args.workload == "cli" else self.library_round
        per = 2 if self.args.trace else 1
        spent = 0.0
        while True:
            traced = bool(self.args.trace) and len(self.rounds) % 2 == 1
            while not self.args.trace and len(self.setup) < min(SETUP_SAMPLES, 2 * len(self.rounds) + 2):
                self.setup.append(setup_sample(self.env, self.work))
            rnd = one(traced)
            self.rounds.append(rnd)
            spent += sum(rnd["op_s"])
            step = spent / len(self.rounds) * per
            if len(self.rounds) % per == 0 and spent + step / 2 >= self.args.seconds:
                break
        while not self.args.trace and len(self.setup) < SETUP_SAMPLES:
            self.setup.append(setup_sample(self.env, self.work))


# ----------------------------------------------------------------- metrics


def end_to_end(run):
    """Every round repeats the same operations, so each operation's
    latency is the least over the rounds (a best-of-R time that filters
    out slow spells of the host); throughput and percentiles are taken
    over those per-operation latencies."""
    rounds = [r["op_s"] for r in run.rounds if not r["traced"]]
    ops = [min(times) for times in zip(*rounds)]
    p = tail_percentile(len(ops))
    values = {
        "setup_s": statistics.median(run.setup),
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_ms": percentile(ops, 50) * 1000,
        "op_tail_ms": percentile(ops, p) * 1000,
        "peak_rss_mb": max(r["rss_mb"] for r in run.rounds),
        "ok_ratio": 1 - run.failed / run.attempted,
    }
    info = (f"op_tail_ms is p{p} of {len(ops)} operations ({len(ops) * (100 - p) / 100:.0f} "
            f"beyond it), each the least of its {len(rounds)} rounds")
    return values, info


def per_layer(run):
    traced = [r for r in run.rounds if r["traced"]]
    plain = [r for r in run.rounds if not r["traced"]]
    values = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER.items()}
    values["trace.overhead_ratio"] = sum(sum(r["op_s"]) for r in traced) / sum(
        sum(r["op_s"]) for r in plain)
    if run.args.workload == "cli":
        first = plain[0]
        for name in ("cli.start_s", "cli.import_s", "cli.main_s", "documents.load_s", "documents.dump_s"):
            values[name] = statistics.median(r["layer"].get(name, 0.0) for r in traced)
        values["documents.bytes"] = sum(len(r["stdout"]) for r in first["results"])
        for cmd in CLI_COMMANDS:
            times = [r["s"] for rnd in plain for r in rnd["results"] if r["cmd"] == cmd]
            values[f"cli.{cmd}.p50_ms"] = statistics.median(times) * 1000
        for r in first["results"]:
            key = f"cli.exit{r['code']}" if r["code"] in (0, 2, 3, 4) else "cli.exit_other"
            values[key] += 1
        for rnd in traced:
            for a, b in zip(rnd["results"], first["results"]):
                if a["stdout"] != b["stdout"] or a["code"] != b["code"]:
                    run.note(f"traced command #{a['i']} ({a['cmd']}) differs from the plain CLI")
                    run.wrong += 1
        return values
    counts = traced[0]["counts"]
    for rnd in traced[1:]:
        if rnd["counts"] != counts:
            run.note("per-layer counts differ between rounds of one seed")
            run.wrong += 1
    for name, value in counts.items():
        if name in values:
            values[name] = value
    for layer in LAYERS:
        values[f"{layer}.busy_s"] = statistics.median(r["busy"].get(layer, 0.0) for r in traced)
    c = counts.get
    values["refine.section_injective_ratio"] = ratio(c("refine.section_injective", 0), c("refine.sections", 0))
    values["refine.section_monotone_ratio"] = ratio(c("refine.section_monotone", 0), c("refine.sections", 0))
    values["squares.commutes_everywhere_ratio"] = ratio(c("squares.commutes_everywhere", 0),
                                                        c("squares.restricted", 0))
    values["squares.g_monotone_ratio"] = ratio(c("squares.g_monotone", 0), c("squares.induced", 0))
    values["derive.probe_ok_ratio"] = ratio(c("derive.probes_ok", 0), c("derive.probes", 0))
    values["derive.derivable_ratio"] = ratio(c("derive.derivable", 0), c("derive.queries", 0))
    values["derive2.derivable_ratio"] = ratio(c("derive2.derivable", 0), c("derive2.queries", 0))
    return values


def remember(run, values):
    """Compare this seed's digest and counts with earlier runs of the same
    program on the same inputs in this checkout."""
    h = hashlib.sha256()
    pkg = os.path.join(run.src, "stratcalc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    h.update(json.dumps(run.spec, sort_keys=True).encode())
    key = f"{run.args.workload}:{run.args.seed}:{h.hexdigest()[:16]}"
    path = os.path.join(run.root, ".perfbench", "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (FileNotFoundError, ValueError):
        known = {}
    mine = {"digest": run.checked_digest[0]}
    if run.args.trace:
        mine["counts"] = {k: v for k, v in values.items()
                          if PER_LAYER.get(k) == "count" or k.endswith("_ratio") and k != "trace.overhead_ratio"}
    before = known.get(key, {})
    for field, value in mine.items():
        if field in before and before[field] != value:
            run.note(f"non-determinism: {field} differs from an earlier run of seed {run.args.seed}")
            run.wrong += 1
    known[key] = {**before, **mine}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stratcalc", "__init__.py")):
        print("error: ./src/stratcalc not found; run from the root of a stratcalc checkout",
              file=sys.stderr)
        return 2
    run = Run(args, root)
    try:
        run.run_rounds()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    missed, kinds = run.bite
    if missed:
        run.note(f"oracles missed planted wrong results for {missed}")
        run.wrong += 1
    if args.trace:
        values, info = per_layer(run), "per-layer metrics from traced rounds"
        units = PER_LAYER
    else:
        values, info = end_to_end(run)
        units = END_TO_END
    remember(run, values)
    print(f"workload={args.workload} seed={args.seed} rounds={len(run.rounds)} "
          f"attempted={run.attempted} failed={run.failed} digest={run.checked_digest[0]}")
    print(f"self-check: planted wrong results caught for {kinds}")
    print(info)
    for msg in run.problems:
        print(f"problem: {msg}")
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
