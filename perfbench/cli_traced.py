"""Traced stand-in for `python -m stratcalc.cli`, owned by the benchmark.

    PERFBENCH_SPAWN=<monotonic time> python3 perfbench/cli_traced.py STATS.json ARGS...

Runs stratcalc.cli.main(ARGS) unchanged, so stdout, stderr and the exit
code are those of the real command, while timing the interpreter start,
`import stratcalc.cli`, the `documents` read/load and dump/write calls
and the rest of main(). The timings go to STATS.json, written once at
exit:

    cli.start_s       spawn (PERFBENCH_SPAWN) to the first statement here
    cli.import_s      import stratcalc.cli
    documents.load_s  read_json and load_* calls, outermost only
    documents.dump_s  dump_*, write_json and dot_hasse calls, outermost only
    cli.main_s        main() minus the two documents spans
"""

import json
import os
import sys
import time

first = time.monotonic()
perf = time.perf_counter

LOAD = ("read_json", "load_space", "load_cover", "load_map_document", "load_query", "load_lie")
DUMP = ("dump_stratification", "dump_refined", "dump_square", "dump_derivative",
        "dump_second_derivative", "dump_complex", "write_json", "dot_hasse")


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    stats = {"cli.start_s": first - float(os.environ["PERFBENCH_SPAWN"]),
             "documents.load_s": 0.0, "documents.dump_s": 0.0}
    t0 = perf()
    import stratcalc.cli as cli
    from stratcalc import documents

    stats["cli.import_s"] = perf() - t0
    depth = [0]

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                stats[name] += perf() - start
                depth[0] -= 1
        return wrapper

    for fn in LOAD:
        setattr(documents, fn, timed("documents.load_s", getattr(documents, fn)))
    for fn in DUMP:
        setattr(documents, fn, timed("documents.dump_s", getattr(documents, fn)))
    start = perf()
    try:
        code = cli.main(argv)
    finally:
        stats["cli.main_s"] = perf() - start - stats["documents.load_s"] - stats["documents.dump_s"]
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
