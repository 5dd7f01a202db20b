"""Command-line interface.

Exit codes follow one convention across subcommands: 0 when the requested
work succeeded (and any verification passed), 1 when a verification or
cross-check failed, 2 for unusable input (bad arguments, degenerate
trinomials, factorization giving up), and 141 (128 + SIGPIPE) when the reader
closes stdout early, as under ``| head``; nothing is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .intarith import FactorizationIncomplete
from .monogenic import is_monogenic
from .search import CSV_HEADER, oracle_check, search_lines, verify_theorem
from .trinomial import Trinomial, classify

__all__ = ["build_parser", "main"]


def _add_trinomial_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b", type=int, required=True, help="coefficient of x^2")
    p.add_argument("--d", type=int, required=True, help="constant coefficient")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c4quartic",
        description="Classify quartic trinomials x^4 + b*x^2 + d: Galois structure, "
        "monogenicity, and box searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full report for one trinomial")
    _add_trinomial_args(p)

    p = sub.add_parser("monogenic", help="monogenicity alone for one trinomial")
    _add_trinomial_args(p)

    p = sub.add_parser("search", help="stream per-cell reports over a coefficient box")
    p.add_argument("--b-min", type=int, required=True)
    p.add_argument("--b-max", type=int, required=True)
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--c4-only", action="store_true", help="keep only cyclic quartics")
    p.add_argument(
        "--monogenic-only", action="store_true", help="keep only monogenic trinomials"
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--workers", type=int, default=1, help="worker processes (at most one per CPU)"
    )

    p = sub.add_parser(
        "verify-theorem",
        help="check that a box contains exactly the three known monogenic cyclic quartics",
    )
    p.add_argument("--b-bound", type=int, required=True, help="search |b| up to this")
    p.add_argument("--d-bound", type=int, required=True, help="search 1 <= d up to this")

    p = sub.add_parser(
        "oracle-check",
        help="compare the branch engine against the independent Dedekind route",
    )
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--b-bound", type=int, required=True, help="sample |b| up to this")
    p.add_argument("--d-bound", type=int, required=True, help="sample |d| up to this")
    p.add_argument("--prime-cap", type=int, default=97, help="largest prime to test (at most 10^7)")

    return parser


def _cmd_classify(args: argparse.Namespace) -> int:
    t = Trinomial(args.b, args.d)
    label = classify(t).value
    report = is_monogenic(t)
    print(json.dumps({"label": label, **report.to_dict()}, indent=2))
    return 0


def _cmd_monogenic(args: argparse.Namespace) -> int:
    t = Trinomial(args.b, args.d)
    report = is_monogenic(t)
    print(json.dumps({"b": t.b, "d": t.d, "monogenic": report.monogenic}))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    lines = search_lines(
        args.b_min,
        args.b_max,
        args.d_min,
        args.d_max,
        c4_only=args.c4_only,
        monogenic_only=args.monogenic_only,
        fmt=args.format,
        workers=args.workers,
        on_skip=lambda msg: print(f"skipped {msg}", file=sys.stderr),
    )
    # one write per line, each as soon as it is ready: print would make two
    write = sys.stdout.write
    try:
        if args.format == "csv":
            write(CSV_HEADER + "\n")
        for line in lines:
            write(line + "\n")
    finally:
        # a closed pipe stops a parallel search here: chunks not yet started
        # are cancelled
        lines.close()
    return 0


def _cmd_verify_theorem(args: argparse.Namespace) -> int:
    result = verify_theorem(args.b_bound, args.d_bound)
    print(json.dumps(result.to_dict(), indent=2))
    return 0 if result.passed else 1


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    result = oracle_check(
        args.samples,
        args.seed,
        -args.b_bound,
        args.b_bound,
        -args.d_bound,
        args.d_bound,
        prime_cap=args.prime_cap,
    )
    print(json.dumps(result.to_dict(), indent=2))
    return 0 if not result.disagreements else 1


# 128 + SIGPIPE, the status a shell reports for `yes | head`
_EXIT_BROKEN_PIPE = 141

_COMMANDS = {
    "classify": _cmd_classify,
    "monogenic": _cmd_monogenic,
    "search": _cmd_search,
    "verify-theorem": _cmd_verify_theorem,
    "oracle-check": _cmd_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        # a closed pipe shows here, not in the interpreter's flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is left unwritten goes to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_BROKEN_PIPE
    except (ValueError, FactorizationIncomplete) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
