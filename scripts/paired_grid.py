"""Paired grid: two builds of ``kernels.c`` timed against each other in one
process, one pass-loop call at a time.

Both sources are compiled with the ``c`` backend's flags (or each with its
own, ``--base-flags`` and ``--new-flags``), and each build's pass loops
are declared as its own source defines them, so that a source whose loops
take other arguments binds too, the hook type included; a loop that
takes a hook (``hook emit``) is handed ``NULL``, as an untraced sort
hands it.  In each cell (sorter,
n, m/n) every round makes the same number of calls of each build's pass
loop on fresh copies of an input the round draws, alternating which build
goes first call by call, and checks that both leave the same words,
payloads (``sort_by_key``) and results.  The keys' minimum and maximum,
which the front door scans for before the loop, are taken once a round,
outside the timed calls.  ``--same-words SORTERS`` lets the
builds' ``moves`` differ in those sorters' cells, for a change that
counts its writes another way but leaves the same words, payloads,
passes and node creations.  With ``--sorted-only`` it checks instead
that each build leaves the input sorted (``np.sort`` of it), each
payload beside its key, and reports no failed check, for a change that
moves words or counters; it then prints each build's passes too.  It
prints, per cell, the median time per call of each build, their ratio
(base / new, above 1 when the new build is faster), the base's spread
between quartiles over its median, and the ratio of the base median to
the new build's quartiles.  With ``--json PATH`` it also writes every
cell (quartiles of each build's time per call, the ratio, the base IQR,
``same_words`` where moves were let differ, each build's passes under
``--sorted-only``) and each build's source, flags and git revision to
``PATH``.

    git show 46a0063:src/assocsort/kernels.c > /tmp/base.c
    PYTHONPATH=src python scripts/paired_grid.py /tmp/base.c src/assocsort/kernels.c \
        --base-flags="-O2 -shared -fPIC" \
        --sorters assoc_improved,assoc_seq,assoc_rec,cycle_distinct

``--grid SORTERS/SIZES/RATIOS``, repeatable, runs grids of their own in
place of ``--sorters``, ``--sizes`` and ``--ratios``.  The grid committed
as ``BENCH_dense_grid.json`` (dense passes of packed nodes against the
source before them):

    git show aa04d9c:src/assocsort/kernels.c > /tmp/base.c
    PYTHONPATH=src python scripts/paired_grid.py /tmp/base.c src/assocsort/kernels.c \
        --grid assoc_improved/16384,131072,1048576/0.25,0.5,1,perm \
        --grid assoc_improved,assoc_seq,assoc_rec/5000/1,3,10,30,100 \
        --sorted-only --rounds 201 --json BENCH_dense_grid.json

The grid committed as ``BENCH_reactivate_grid.json`` (the rank sort's
interleaved reactivation against the source before it; the value
sorters' cells compare words and every result):

    git show 7c3676f:src/assocsort/kernels.c > /tmp/base.c
    PYTHONPATH=src python scripts/paired_grid.py /tmp/base.c src/assocsort/kernels.c \
        --grid sort_by_key/1024,2048,4096,8192,16384,32768,65536,131072,262144,524288,1048576/0.25,1,perm \
        --grid sort_by_key/5000/1,3,10,30,100 \
        --grid assoc_improved,distinct_improved,assoc_seq,assoc_rec,cycle_distinct/5000/3,100 \
        --grid assoc_improved/131072/1 \
        --same-words sort_by_key --rounds 101 --json BENCH_reactivate_grid.json

The grid committed as ``BENCH_density_grid.json`` (narrow fields for the
sparse passes of ``assoc_improved`` against the source before them):

    git show 3c5fec8:src/assocsort/kernels.c > /tmp/base.c
    PYTHONPATH=src python scripts/paired_grid.py /tmp/base.c src/assocsort/kernels.c \
        --grid assoc_improved/5000,100000/1,3,10,30,100,30d,100d \
        --grid assoc_improved/131072/1 \
        --grid distinct_improved,assoc_seq,assoc_rec,cycle_distinct/5000/3,100 \
        --sorted-only --rounds 41 --json BENCH_density_grid.json

The grid committed as ``BENCH_chains_grid.json`` (the chains in every rank
pass, deferred keys handed to a tail cursor, against the source whose
passes that defer took a sequential walk):

    git show 45a8c1e:src/assocsort/kernels.c > /tmp/base.c
    PYTHONPATH=src python scripts/paired_grid.py /tmp/base.c src/assocsort/kernels.c \
        --grid sort_by_key/64,256,1000,1024,4096,32768,131072,1048576/0.25,1,perm \
        --grid sort_by_key/5000,100000/1,2,3,5,10,30,100,30d,100d \
        --grid assoc_improved,distinct_improved,assoc_seq,assoc_rec,cycle_distinct/5000/3,100 \
        --grid assoc_improved/131072/1 \
        --sorted-only --rounds 41 --json BENCH_chains_grid.json

The grid committed as ``BENCH_paired_grid.json`` (the counting sorters
against the source before their passes packed):

    git show 3272a8b:src/assocsort/kernels.c > /tmp/base.c
    PYTHONPATH=src python scripts/paired_grid.py /tmp/base.c src/assocsort/kernels.c \
        --sorters assoc_seq,assoc_rec --sizes 5000,100000 --ratios 1,3,10,30,100 \
        --sorted-only --json BENCH_paired_grid.json

A round makes ``max(1, 200000 // n)`` calls of each build; an input drawn
for each round, not one for the cell, keeps a cell at large n, one call a
build per round, from resting on the layout of one input
(``BENCH_paired_grid.json`` was made with one input per cell).  The packed
rows of the cursor gate's table at ``DENSE_FLOOR`` in ``kernels.c`` were
made so, ``never.c`` and ``force.c`` being ``kernels.c`` with
``dense_last`` edited to refuse, or to take regardless of spread, every
pass of packed nodes:

    PYTHONPATH=src python scripts/paired_grid.py never.c force.c --sorted-only \
        --grid assoc_improved/16384,32768,65536,131072,262144,524288,1048576/0.5,0.625,0.75,1,perm \
        --rounds 301

Inputs: ``distinct_improved`` and ``cycle_distinct`` get n distinct keys
drawn from [0, m); ``assoc_seq`` and ``assoc_rec`` get n keys drawn from
a pool of n/2 distinct keys in [0, m), as the benchmark's
``paper-variants`` draws them; ``assoc_improved`` and ``sort_by_key`` (the
rank loop, carrying a payload ramp) get n keys drawn uniformly from
[0, m), as ``sparse-sort`` and ``rank-pairs`` draw them.  An m/n of
``perm`` gives every sorter a permutation of [0, n), and one with a
``d`` suffix (``100d``) the sorters that take repeated keys n keys drawn
from n/4 values in [0, m), m = n times the number, as
``tests/golden_counters.json`` draws its ``dup`` instances.  Each sorter's call
is its pass loop as its driver makes it, with the default word of 63
bits.  Each array is passed as its address and byte stride.  With
``--step K`` the keys lie in a view of step K (2, or -1, say) of an
array of their own, so that a loop runs its instance for any stride; the
payload ramp and ``assoc_rec``'s level buffer stay contiguous.  Untraced
step-2 views of the loops against the source before they lost their
untraced any-stride instance:

    git show 4f8ba8c:src/assocsort/kernels.c > /tmp/base.c
    PYTHONPATH=src python scripts/paired_grid.py /tmp/base.c src/assocsort/kernels.c \\
        --step 2 --grid assoc_improved,cycle_distinct/5000/3,100 \\
        --grid assoc_improved/131072/1 --rounds 101
"""

import argparse
import json
import os
import platform
import re
import subprocess
import tempfile
import time

import cffi
import numpy as np

from assocsort import ckernels


TAG = 1 << 62
DISTINCT = ("distinct_improved", "cycle_distinct")
POOLED = ("assoc_seq", "assoc_rec")
PERM = "perm"  # the m/n of a permutation
DUP = "d"  # the suffix of an m/n of keys drawn from n/4 values


# The pass loops, by name: where each reports its phase.
LOOPS = {"improved_passes": 4, "sequential_passes": 4, "stacked_passes": 6,
         "distinct_passes": 4, "rank_passes": 4}


def bind(source, flags, directory, name):
    """The pass loops of ``source``, compiled with ``flags`` into
    ``directory`` and declared as ``source`` defines them: a dict of
    functions that take the arrays and integers of the loop and return its
    results, and, under ``"params"``, how many parameters each C loop takes
    besides its hook."""
    so = os.path.join(directory, name + ".so")
    subprocess.run(["cc", *flags, "-o", so, source], check=True)
    with open(source) as fh:
        text = fh.read()
    ffi = cffi.FFI()
    # The hook type as the source declares it: it returns int since a hook
    # can stop its loop, and returned nothing before.
    typedef = re.search(r"^typedef \w+ \(\*hook\)\([^)]*\);", text, re.M)
    ffi.cdef("typedef int64_t i64;" + (typedef[0] if typedef else ""))
    params, hooked = {}, set()
    for loop, args in re.findall(r"^void (\w+)\(([^)]*)\)\s*\{", text, re.M):
        if loop in LOOPS:
            ffi.cdef(f"void {loop}({args});")
            if re.search(r"\bhook\b", args):
                hooked.add(loop)
            params[loop] = args.count(",") + 1 - (loop in hooked)
    lib = ffi.dlopen(so)

    def caller(loop):
        fn, results = getattr(lib, loop), ckernels.SIGNATURES[loop][1]
        emit = [ffi.NULL] if loop in hooked else []

        def call(*args):
            out = ffi.new(f"int64_t[{results}]")
            cargs = []
            for a in args:
                cargs += ([ffi.cast("char *", a.ctypes.data), a.strides[0]]
                          if isinstance(a, np.ndarray) else [a])
            fn(*cargs, *emit, out)
            return tuple(out)
        return call

    return {"params": params, **{loop: caller(loop) for loop in params}}


def keys_for(sorter, n, ratio, seed, r):
    """The input of round ``r`` of a cell: see the module's docstring;
    ``ratio`` "perm" is a permutation of [0, n) for every sorter."""
    if ratio == PERM:
        return np.random.default_rng([seed, n, 0, r]).permutation(n).astype(np.int64)
    dup = isinstance(ratio, str)
    m = max(int(float(ratio.removesuffix(DUP) if dup else ratio) * n), 1)
    rng = np.random.default_rng([seed, n, m, r])
    if dup:
        if sorter in DISTINCT:
            raise ValueError(f"{sorter} takes no repeated keys (m/n {ratio})")
        pool = rng.integers(0, m, size=max(n // 4, 1))
        return pool[rng.integers(0, len(pool), size=n)].astype(np.int64)
    if sorter in DISTINCT:
        return rng.choice(m, size=n, replace=False).astype(np.int64)
    if sorter in POOLED:
        pool = rng.choice(m, size=max(n // 2, 1), replace=False)
        return pool[rng.integers(0, len(pool), size=n)].astype(np.int64)
    return rng.integers(0, m, size=n, dtype=np.int64)


def loop_of(sorter):
    """The pass loop ``sorter``'s driver calls."""
    return {"assoc_improved": "improved_passes", "distinct_improved": "improved_passes",
            "assoc_seq": "sequential_passes", "cycle_distinct": "distinct_passes",
            "sort_by_key": "rank_passes", "assoc_rec": "stacked_passes"}[sorter]


def run(ns, sorter, S, lo, hi, P=None):
    """One call of ``sorter``'s pass loop on ``S`` (carrying the payload
    ``P`` for ``sort_by_key``), as ``sorter`` makes it, with the keys'
    minimum ``lo`` and maximum ``hi``, which the front door scans for
    before the loop."""
    n = len(S)
    loop = ns[loop_of(sorter)]
    if sorter in ("assoc_improved", "distinct_improved"):
        distinct = sorter == "distinct_improved"
        # The node form (F, b), or in a source that predates it, wm1.
        form = ((62, 1) if distinct else (1, 62)) if ns["params"]["improved_passes"] == 10 \
            else (62 if distinct else 0,)
        return loop(S, 0, n, lo, hi, *form, TAG)
    if sorter in POOLED:
        # The keys' maximum, which the counting loops take after their
        # minimum; a source from before they took it has one parameter
        # fewer.
        top = [hi]
        if ns["params"][loop_of(sorter)] in (7, 11):
            top = []
    if sorter == "assoc_seq":
        return loop(S, 0, n, lo, *top, 63)
    if sorter == "cycle_distinct":
        return loop(S, 0, n, lo)
    if sorter == "sort_by_key":
        return loop(S, P, 0, n, lo, TAG)
    L = np.zeros(2 * n + 2, dtype=np.int64)
    return loop(S, L, 0, n, lo, *top, 0, n + 1, 63)


def view(keys, step):
    """A copy of ``keys`` as a view of step ``step`` into an array of its
    own: contiguous at step 1."""
    S = np.zeros(len(keys) * abs(step), dtype=np.int64)[::step]
    S[:] = keys
    return S


def cell(A, B, sorter, n, ratio, rounds, seed, sorted_only=False, step=1, same_words=False):
    """Mean time per call of ``A`` and of ``B`` in each round, on keys in
    views of step ``step``, and the passes of each build's last call.
    Both builds must leave the same words and payloads and the same
    results, but with ``same_words`` their ``moves``; with
    ``sorted_only`` each must sort, each payload beside its key."""
    at = LOOPS[loop_of(sorter)]
    calls = max(1, 200_000 // n)
    times = {id(A): [], id(B): []}
    for r in range(rounds):
        keys = keys_for(sorter, n, ratio, seed, r)
        lo, hi = int(keys.min()), int(keys.max())
        expect = np.sort(keys)
        total = {id(A): 0, id(B): 0}
        for c in range(calls):
            left = {}
            for ns in (A, B) if (r + c) % 2 == 0 else (B, A):
                S = view(keys, step)
                P = np.arange(n, dtype=np.int64) if sorter == "sort_by_key" else None
                t0 = time.perf_counter_ns()
                result = run(ns, sorter, S, lo, hi, P)
                total[id(ns)] += time.perf_counter_ns() - t0
                left[id(ns)] = (tuple(result), S, P)
            if sorted_only:
                for result, words, P in left.values():
                    assert result[at] == 0 and np.array_equal(words, expect), (
                        sorter, n, ratio, result)
                    assert P is None or np.array_equal(keys[P], words), (sorter, n, ratio)
            else:
                (ra, wa, pa), (rb, wb, pb) = left[id(A)], left[id(B)]
                if same_words:  # all but moves, the second result of every loop
                    ra, rb = ra[:1] + ra[2:], rb[:1] + rb[2:]
                assert ra == rb and np.array_equal(wa, wb), (sorter, n, ratio)
                assert pa is None or np.array_equal(pa, pb), (sorter, n, ratio)
        for k in total:
            times[k].append(total[k] / calls)
    return times[id(A)], times[id(B)], left[id(A)][0][0], left[id(B)][0][0]


def revision(source):
    """The git revision of the checkout that holds ``source`` where
    ``source`` is tracked there and unmodified, else ``None``."""
    directory = os.path.dirname(os.path.abspath(source))

    def git(*args):
        proc = subprocess.run(["git", "-C", directory, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    tracked = git("ls-files", "--error-unmatch", os.path.abspath(source))
    if not tracked or git("status", "--porcelain", "--", os.path.abspath(source)):
        return None
    return git("rev-parse", "--short", "HEAD")


def build_info(source, flags):
    """What names a build: its source file, its blob id (which ``git log
    --find-object`` finds in the history, where the source is not a
    tracked file), flags and git revision."""
    proc = subprocess.run(["git", "hash-object", source], capture_output=True, text=True)
    return {"source": os.path.basename(source), "blob": proc.stdout.strip() or None,
            "flags": flags, "rev": revision(source)}


def cpu_model():
    """The CPU's model name, from ``/proc/cpuinfo`` where there is one."""
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), None)
    except OSError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--rounds", type=int, default=41)
    parser.add_argument("--sizes", default="5000,100000")
    parser.add_argument("--ratios", default="1,3,10,30,100")
    parser.add_argument("--sorters", default="distinct_improved,assoc_rec")
    parser.add_argument("--grid", action="append", metavar="SORTERS/SIZES/RATIOS",
                        help="a grid of its own, as --sorters, --sizes and --ratios "
                             "joined by '/'; repeatable, in place of those three")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--base-flags", default=" ".join(ckernels.FLAGS),
                        help="compile flags of the base (default: the backend's)")
    parser.add_argument("--new-flags", default=" ".join(ckernels.FLAGS),
                        help="compile flags of the new build (default: the backend's)")
    parser.add_argument("--sorted-only", action="store_true",
                        help="check that each build sorts, not that both leave the "
                             "same words and results, and print each build's passes")
    parser.add_argument("--same-words", default="", metavar="SORTERS",
                        help="comma-separated sorters whose builds must leave the same "
                             "words, payloads and results but may count other moves")
    parser.add_argument("--step", type=int, default=1,
                        help="pass the keys as views of this step (default 1, "
                             "contiguous)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the cells and both builds to PATH")
    args = parser.parse_args()
    cells = []
    same_words = set(filter(None, args.same_words.split(",")))
    with tempfile.TemporaryDirectory() as directory:
        A = bind(args.base, args.base_flags.split(), directory, "base")
        B = bind(args.new, args.new_flags.split(), directory, "new")
        grids = [g.split("/") for g in args.grid or ["/".join((args.sorters, args.sizes,
                                                                args.ratios))]]
        for sorter, n, ratio in ((sorter, int(n),
                                  r if r == PERM or r.endswith(DUP) else float(r))
                                 for sorters, sizes, ratios in grids
                                 for sorter in sorters.split(",")
                                 for n in sizes.split(",")
                                 for r in ratios.split(",")):
            ta, tb, pa, pb = cell(A, B, sorter, n, ratio, args.rounds, args.seed,
                                  args.sorted_only, args.step, sorter in same_words)
            qa = np.percentile(ta, [25, 50, 75])
            qb = np.percentile(tb, [25, 50, 75])
            passes = f"  passes {pa} / {pb}" if args.sorted_only else ""
            print(f"{sorter:17s} n={n:<7d} m/n={ratio:<4} "
                  f"base {qa[1] / 1e3:9.1f} us  new {qb[1] / 1e3:9.1f} us  "
                  f"ratio {qa[1] / qb[1]:.3f}  base IQR {(qa[2] - qa[0]) / qa[1]:.3f}  "
                  f"[{qa[1] / qb[2]:.3f}, {qa[1] / qb[0]:.3f}]{passes}", flush=True)
            cells.append({
                "sorter": sorter, "n": n, "ratio": ratio,
                "base_us": [round(q / 1e3, 2) for q in qa],
                "new_us": [round(q / 1e3, 2) for q in qb],
                "base_over_new": round(qa[1] / qb[1], 4),
                "base_iqr": round((qa[2] - qa[0]) / qa[1], 4),
                **({"same_words": True} if sorter in same_words and not args.sorted_only
                   else {}),
                **({"base_passes": int(pa), "new_passes": int(pb)}
                   if args.sorted_only else {}),
            })
    if args.json:
        doc = {
            "rounds": args.rounds, "seed": args.seed, "sorted_only": args.sorted_only,
            "step": args.step,
            "base": build_info(args.base, args.base_flags),
            "new": build_info(args.new, args.new_flags),
            "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                        "platform": platform.platform()},
            "cells": cells,
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
