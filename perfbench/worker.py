"""Run one round of library operations in a fresh interpreter.

    python3 perfbench/worker.py ROUND.json OUT.json TRACE

The orchestrator (run.py) starts this with the checkout's ``src`` on
PYTHONPATH. Each operation is timed around the public stratcalc calls
only; serializing its result with ``stratcalc.documents`` happens after
the clock stops. With TRACE=1 every call into a stratcalc module is
also recorded as a span [layer, start, end, parent, operation]; spans
stay in memory and are written once, with the results, at the end.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import stratcalc as sc
from stratcalc import documents
from stratcalc.errors import InputError

perf = time.perf_counter


class Tracer:
    """Times operations and, when on, the layer calls inside them."""

    def __init__(self, on: bool):
        self.on = on
        self.spans = []
        self.root = None
        self.op = -1

    def start(self, name: str):
        self.op += 1
        self.root = None
        if self.on:
            self.root = len(self.spans)
            self.spans.append([f"op.{name}", perf(), None, None, self.op])

    def finish(self):
        if self.on:
            self.spans[self.root][2] = perf()

    def call(self, layer: str, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        span = [layer, perf(), None, self.root, self.op]
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf()


class Round:
    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.records = []
        self.counts = {}

    def count(self, name: str, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def op(self, kind: str, index: int, body):
        """Run body() -> (result, serializer) as one timed operation."""
        self.t.start(kind)
        start = perf()
        try:
            result, serialize = body()
            elapsed = perf() - start
            self.t.finish()
            rec = {"op": kind, "i": index, "s": elapsed, "error": None, "doc": serialize(result)}
        except Exception as exc:  # recorded and judged by the oracle
            elapsed = perf() - start
            self.t.finish()
            rec = {"op": kind, "i": index, "s": elapsed,
                   "error": f"{type(exc).__name__}: {exc}", "doc": None}
        self.records.append(rec)


# ------------------------------------------------------------------ strata


def build_space(space):
    points = space["points"]
    if space["source"] == "discrete":
        return sc.discrete_space(points)
    if space["source"] == "basis":
        return sc.generate_topology(points, [frozenset(b) for b in space["basis"]])
    poset = sc.Poset.generate(points, [tuple(p) for p in space["pairs"]])
    return sc.alexandroff_from_poset(poset)


def run_strata(spec, rnd: Round):
    call = rnd.t.call
    for i, ses in enumerate(spec["sessions"]):
        state = {}

        def space_op():
            space = call("spaces", build_space, ses["space"])
            rnd.count("spaces.opens", len(space.opens))
            rnd.count("spaces.points", len(space.points))
            state["space"] = space
            return space, documents.dump_space

        def cover_of(members):
            return call("stratify", sc.Cover, state["space"], tuple(frozenset(m) for m in members))

        def stratify(cover):
            try:
                strat = call("stratify", sc.standard_stratification, state["space"], cover)
            except InputError:
                rnd.count("stratify.refused")
                raise
            rnd.count("stratify.classes", len(strat.quotient.classes))
            rnd.count("stratify.upsets", strat.certificate.up_set_count)
            return strat

        def stratify_op():
            state["cover"] = cover_of(ses["cover"])
            strat = state["strat"] = stratify(state["cover"])
            formulas = {
                c.representative: sorted(call("stratify", sc.stratum_preimage_formula, strat, c.representative))
                for c in strat.quotient.classes
            }
            return (strat, formulas), lambda r: {**documents.dump_stratification(r[0]), "formulas": r[1]}

        def refine_op():
            space, cover = state["space"], state["cover"]
            limit = call("refine", sc.refined_poset, space)
            rnd.count("refine.limit_classes", len(limit.classes))
            cmap = call("refine", sc.coarsening_from_refined, space, cover)
            return (limit, cover, cmap), lambda r: documents.dump_refined(r[0], [(r[1], r[2])])

        def section_op():
            fine = cover_of(ses["fine"])
            pair = call("refine", sc.RefinementPair, state["cover"], fine)
            rep = call("refine", sc.representative_section, pair)
            rnd.count("refine.sections")
            rnd.count("refine.section_injective", rep.injective)
            rnd.count("refine.section_monotone", rep.monotone)
            return rep, lambda r: {"mapping": dict(r.section.mapping), "injective": r.injective,
                                   "monotone": r.monotone, "surjective": r.section.surjective}

        def square_op():
            space = state["space"]
            s2 = state["s2"] = stratify(cover_of(ses["cover2"]))
            f = call("spaces", sc.PointMap, space, space, ses["f"])
            state["f"] = f
            result = call("squares", sc.induce_g, f, state["strat"], s2)
            cert = call("squares", sc.check_square, result.square)
            rnd.count("squares.induced")
            rnd.count("squares.restricted")
            rnd.count("squares.commutes_everywhere", result.commutes_everywhere)
            rnd.count("squares.g_monotone", result.g_monotone)
            return (result, cert), lambda r: documents.dump_square(*r)

        def alt_op():
            result = call("squares", sc.alt_induce_g, state["f"], state["s2"])
            cert = call("squares", sc.check_square, result.square)
            rnd.count("squares.induced")
            rnd.count("squares.g_monotone", result.g_monotone)
            return (result, cert), lambda r: documents.dump_square(*r)

        rnd.op("space", i, space_op)
        for kind, body, needs in (
            ("stratify", stratify_op, "space"),
            ("refine", refine_op, "cover"),
            ("section", section_op, "cover"),
            ("square", square_op, "strat" if ses["f"] else None),
            ("alt", alt_op, "f" if ses["alt"] else None),
        ):
            if needs is None:
                continue
            rnd.op(kind, i, body if needs in state else _missing(needs))


def _missing(what):
    def body():
        raise RuntimeError(f"skipped: {what} unavailable after an earlier failure")
    return body


# ---------------------------------------------------------------- calculus


def run_calculus(spec, rnd: Round):
    call = rnd.t.call
    distinct = set()
    for i, q in enumerate(spec["ops"]):
        if q["op"] == "complex":
            def complex_op(q=q):
                g = call("forms", sc.LieAlgebraPresentation.from_brackets, q["dim"],
                         [(a, b, cs) for a, b, cs in q["brackets"]])
                report = call("forms", sc.de_rham_complex, g)
                rnd.count("forms.entries", sum(len(r) for m in report.matrices for r in m))
                rnd.count("forms.nonzeros", sum(1 for m in report.matrices for r in m for e in r if e))
                return report, documents.dump_complex
            rnd.op("complex", i, complex_op)
            continue

        def derive_op(q=q):
            distinct.add(tuple(q["k"]))
            k = call("exprfn", sc.ExprFunction, q["arity"], tuple(q["k"]))
            space = call("spaces", sc.discrete_space, ["z1", "z2", "z3"])
            rho = call("derive", sc.PiecewiseConeAction, tuple(
                sc.Piece(lo, p["until"], p["table"])
                for lo, p in zip([0.0] + [p["until"] for p in q["rho"][:-1]], q["rho"])
            ))
            spec_ = call("derive", sc.parametric_spec, k, rho, space, space)
            cone = q["cone"]
            c = sc.CONE_APEX if cone == "star" else sc.cone_coord(cone["t"], cone["z"])
            if q["order"] == 1:
                report = call("derive", sc.derive, spec_, q["v"], q["x"], c, tol=q["tol"])
                rnd.count("derive.steps", len(report.trace))
                rnd.count("derive.probes", len(report.probes))
                rnd.count("derive.probes_ok", sum(p.ok for p in report.probes))
                rnd.count("derive.derivable", report.derivable)
                rnd.count("derive.queries")
                return report, documents.dump_derivative
            report = call("derive2", sc.nth_derivative, spec_, 2, q["v"], q["x"], c)
            rnd.count("derive2.derivable", report.derivable)
            rnd.count("derive2.queries")
            return report, documents.dump_second_derivative
        rnd.op(f"derive{q['order']}", i, derive_op)
    rnd.count("exprfn.distinct", len(distinct))


def main(argv):
    round_path, out_path, trace = argv
    with open(round_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    rnd = Round(Tracer(trace == "1"))
    {"strata": run_strata, "calculus": run_calculus}[spec["workload"]](spec, rnd)
    for name, _, _, parent, _ in rnd.t.spans:
        if parent is not None:
            rnd.count(f"{name}.calls")
    out = {
        "records": rnd.records,
        "counts": rnd.counts,
        "spans": rnd.t.spans,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": sc.__file__,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
