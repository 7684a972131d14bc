"""``assoc-bench``: benchmark the sorters from the command line.

Subcommands
-----------
run
    Time algorithms over a grid of sizes, range ratios and
    distributions; optionally verify, write CSV, dump phase traces.
backends
    Run one grid on every kernel backend that can run here (C, plain
    Python) and print the median tables one after another.
"""

import argparse
import sys
from typing import List, Optional

from .adapter import ALGORITHMS
from .backend import BACKENDS, available, current_backend, set_backend, use_backend
from .bench import (
    BASELINES,
    GENERATORS,
    make_trace_writer,
    run_bench,
    summarize,
    write_csv,
)
from .errors import VerificationError, WordRangeError
from .words import MAX_WIDTH, WordConfig


def _width(text: str) -> int:
    """A ``--w`` value, refused as a usage error where WordConfig refuses it."""
    try:
        return WordConfig(int(text)).w
    except WordRangeError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--algo", action="append", dest="algos", metavar="NAME",
        choices=sorted(ALGORITHMS) + sorted(BASELINES),
        help="algorithm or baseline; repeatable (default: assoc_improved)",
    )
    p.add_argument(
        "--n", action="append", dest="ns", type=int, metavar="N",
        help="array length; repeatable (default: 100000)",
    )
    p.add_argument(
        "--ratio", action="append", dest="ratios", type=float, metavar="R",
        help="key range as a multiple of n (m = round(R*n)); repeatable (default: 1.0)",
    )
    p.add_argument(
        "--dist", action="append", dest="dists", metavar="D",
        choices=sorted(GENERATORS),
        help="input distribution; repeatable (default: uniform)",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument("--trials", type=int, default=3, help="trials per cell (default 3)")
    p.add_argument(
        "--w", type=_width, default=MAX_WIDTH,
        help=f"virtual word width in bits (default {MAX_WIDTH})",
    )
    p.add_argument("--csv", metavar="PATH", help="write rows to this CSV file")
    p.add_argument("--summary", action="store_true", help="print median table")


def _defaults(args) -> None:
    args.algos = args.algos or ["assoc_improved"]
    args.ns = args.ns or [100000]
    args.ratios = args.ratios or [1.0]
    args.dists = args.dists or ["uniform"]


def _cmd_run(args) -> int:
    _defaults(args)
    if args.backend:
        set_backend(args.backend)
    trace_fh = None
    trace = None
    try:
        if args.trace:
            trace_fh = open(args.trace, "w", encoding="utf-8", newline="")
            trace = make_trace_writer(trace_fh, WordConfig(args.w))
        rows = run_bench(
            args.algos, args.ns, args.ratios, args.dists,
            seed=args.seed, trials=args.trials, w=args.w,
            do_verify=args.verify, trace=trace,
        )
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if trace_fh is not None:
            trace_fh.close()
    if args.csv:
        write_csv(rows, args.csv)
        print(f"wrote {len(rows)} rows to {args.csv}")
    if args.summary or not args.csv:
        print(f"backend: {current_backend()}")
        for line in summarize(rows):
            print(line)
    return 0


def _cmd_backends(args) -> int:
    _defaults(args)
    names = [b for b in BACKENDS if available(b)]
    tables = {}
    for name in names:
        with use_backend(name):
            rows = run_bench(
                args.algos, args.ns, args.ratios, args.dists,
                seed=args.seed, trials=args.trials, w=args.w,
                do_verify=args.verify,
            )
        tables[name] = rows
        if args.csv:
            path = f"{args.csv}.{name}.csv"
            write_csv(rows, path)
            print(f"wrote {len(rows)} rows to {path}")
    for name in names:
        print(f"--- backend: {name} ---")
        for line in summarize(tables[name]):
            print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assoc-bench",
        description="Benchmark in-place associative integer sorting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="time a grid of instances")
    _add_grid_args(run_p)
    run_p.add_argument(
        "--verify", action="store_true",
        help="check every output against numpy's sort (untimed)",
    )
    run_p.add_argument(
        "--trace", metavar="PATH",
        help="write line-delimited JSON phase snapshots (arrays of at most "
             "64 words only)",
    )
    run_p.add_argument(
        "--backend", choices=BACKENDS,
        help="kernel backend (default: the first of c, numpy that runs)",
    )
    run_p.set_defaults(func=_cmd_run)

    b_p = sub.add_parser("backends", help="compare the kernel backends")
    _add_grid_args(b_p)
    b_p.add_argument("--verify", action="store_true", help="verify outputs")
    b_p.set_defaults(func=_cmd_backends)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
