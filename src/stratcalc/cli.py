"""Command line surface.

Commands: stratify, limit, check-map, derive, cohomology, selftest.
Exit codes: 0 success, 2 input validation, 3 mathematical-check failure,
4 numeric non-convergence. The default derive tolerance can be set with
the STRATCALC_TOL environment variable and overridden per run by --tol.
The calculus modules are imported inside the commands that call them, so
stratify, limit and check-map never load them.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, documents
from .errors import (
    InputError,
    InternalInvariantError,
    NumericError,
    StructuralError,
    UnsupportedPrecisionError,
    ValidationError,
)
from .refine import _coarsening, refined_poset
from .spaces import PointMap
from .squares import alt_induce_g, check_square, induce_g
from .stratify import Cover, quotient_poset, standard_stratification

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MATH = 3
EXIT_NUMERIC = 4


def _default_tol() -> float:
    from .derive import DEFAULT_TOL

    raw = os.environ.get("STRATCALC_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise InputError(f"STRATCALC_TOL={raw!r} is not a number") from None
    if tol <= 0:
        raise InputError("STRATCALC_TOL must be positive")
    return tol


def _emit(args, doc) -> None:
    text = documents.write_json(args.out, doc)
    if args.out is None:
        print(text)


def cmd_stratify(args) -> int:
    space = documents.load_space(documents.read_json(args.space[0]))
    cover = documents.load_cover(documents.read_json(args.cover[0]), space)
    strat = standard_stratification(space, cover)
    _emit(args, documents.dump_stratification(strat))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(documents.dot_hasse(strat.quotient))
    return EXIT_OK


def cmd_limit(args) -> int:
    space = documents.load_space(documents.read_json(args.space[0]))
    quotient = refined_poset(space)
    witnesses = None
    if args.witness:
        witnesses = []
        full = space.full
        for members in [(full,)] + [(u, full) for u in space.opens_sorted() if u and u != full]:
            cover = Cover(space, members)
            witnesses.append((cover, _coarsening(quotient, quotient_poset(space, cover))))
    _emit(args, documents.dump_refined(quotient, witnesses))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(documents.dot_hasse(quotient))
    return EXIT_OK


def cmd_check_map(args) -> int:
    mapdoc = documents.load_map_document(documents.read_json(args.map))
    spaces = [documents.load_space(documents.read_json(p), p) for p in args.space]
    covers = [documents.read_json(p) for p in args.cover]
    if len(spaces) != 2:
        raise InputError("check-map needs exactly two --space documents")
    restricted = mapdoc["mode"] == "restricted"
    if restricted and len(covers) != 2:
        raise InputError("restricted mode needs two --cover documents")
    if not restricted and len(covers) != 1:
        raise InputError(
            "identity-stratification mode needs one --cover document (for the codomain)"
        )
    if restricted:
        s1 = standard_stratification(spaces[0], documents.load_cover(covers[0], spaces[0]))
    # the codomain's cover is the last one in either mode
    s2 = standard_stratification(spaces[1], documents.load_cover(covers[-1], spaces[1]))
    f = PointMap(spaces[0], spaces[1], mapdoc["table"])
    result = induce_g(f, s1, s2, mapdoc["representatives"]) if restricted else alt_induce_g(f, s2)
    certificate = check_square(result.square)
    doc = documents.dump_square(result, certificate)
    _emit(args, doc)
    if not certificate.f_continuous:
        u, pre = certificate.continuity_witness
        print(
            f"error: top map not continuous; open {sorted(u)} pulls back "
            f"to non-open {sorted(pre)}",
            file=sys.stderr,
        )
        return EXIT_MATH
    return EXIT_OK


def cmd_derive(args) -> int:
    from .derive import derive, nth_derivative

    query = documents.load_query(
        documents.read_json(args.query),
        args.tol if args.tol is not None else _default_tol(),
    )
    if query["order"] == 1:
        report = derive(
            query["spec"], query["v"], query["x"], query["cone"], tol=query["tol"]
        )
        _emit(args, documents.dump_derivative(report))
    else:
        # second-order runs use their own looser default unless the query
        # or the flag pinned a tolerance explicitly
        explicit = query["tol"] if (query["tol_explicit"] or args.tol is not None) else None
        report = nth_derivative(
            query["spec"], query["order"], query["v"], query["x"], query["cone"],
            tol=explicit,
        )
        _emit(args, documents.dump_second_derivative(report))
    if not report.derivable:
        print(f"error: not derivable: {report.failure}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_cohomology(args) -> int:
    from .forms import de_rham_complex

    g = documents.load_lie(documents.read_json(args.lie))
    report = de_rham_complex(g)
    _emit(args, documents.dump_complex(report))
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok, summary = run_selftest(args.seed, inject_fault=args.inject_fault)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(summary)
    print(summary, end="")
    return EXIT_OK if ok else EXIT_MATH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratcalc",
        description="Stratifications, refinement limits, stratified map "
        "squares, numeric cone derivatives, and exact cohomology on finite "
        "desk-scale spaces.",
    )
    parser.add_argument("--version", action="version", version=f"stratcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dot=False):
        p.add_argument("--out", help="write the result document to this path")
        if dot:
            p.add_argument("--dot", help="write a DOT Hasse diagram to this path")

    p = sub.add_parser("stratify", help="stratify a space by a cover")
    p.add_argument("--space", action="append", required=True)
    p.add_argument("--cover", action="append", required=True)
    common(p, dot=True)
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("limit", help="cover-independent limit poset")
    p.add_argument("--space", action="append", required=True)
    p.add_argument(
        "--witness",
        action="store_true",
        help="include coarsening surjections onto sampled covers",
    )
    common(p, dot=True)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("check-map", help="induce and certify a stratified square")
    p.add_argument("--map", required=True)
    p.add_argument("--space", action="append", required=True,
                   help="domain space, then codomain space")
    p.add_argument("--cover", action="append", default=[],
                   help="covers matching the spaces (one in identity mode)")
    common(p)
    p.set_defaults(func=cmd_check_map)

    p = sub.add_parser("derive", help="numeric derivative of a conical map")
    p.add_argument("--query", required=True)
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("cohomology", help="cochain complex of a presented algebra")
    p.add_argument("--lie", required=True)
    common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("selftest", help="run every invariant suite from a seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, UnsupportedPrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (StructuralError, ValidationError, InternalInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
