"""Paired grid: two builds of ``kernels.c`` timed against each other in one
process, one pass-loop call at a time.

Both sources are compiled with the ``c`` backend's flags and bound through
``ckernels._bind``.  In each cell (sorter, n, m/n) every round makes the
same number of calls of each build's pass loop on fresh copies of one
input, alternating which build goes first call by call, and checks that
both leave the same words and results.  It prints, per cell, the median
time per call of each build, their ratio (base / new, above 1 when the new
build is faster), the base's spread between quartiles over its median, and
the ratio of the base median to the new build's quartiles.

    git show 1734ce6:src/assocsort/kernels.c > /tmp/base.c
    PYTHONPATH=src python scripts/paired_grid.py /tmp/base.c src/assocsort/kernels.c

Inputs: ``distinct_improved`` gets n distinct keys drawn from [0, m);
``assoc_rec`` gets n keys drawn from a pool of n/2 distinct keys in
[0, m), as the benchmark's ``paper-variants`` draws them.
"""

import argparse
import os
import subprocess
import tempfile
import time

import cffi
import numpy as np

from assocsort import ckernels


def bind(source, directory, name):
    """The kernels of ``source``, compiled into ``directory``."""
    so = os.path.join(directory, name + ".so")
    subprocess.run(["cc", *ckernels.FLAGS, "-o", so, source], check=True)
    ffi = cffi.FFI()
    ffi.cdef(ckernels.CDEF)
    return ckernels._bind(ffi, ffi.dlopen(so), os.path.join(directory, name))


def keys_for(sorter, n, ratio, seed):
    rng = np.random.default_rng([seed, n, ratio])
    if sorter == "distinct_improved":
        return rng.choice(ratio * n, size=n, replace=False).astype(np.int64)
    pool = rng.choice(ratio * n, size=max(n // 2, 1), replace=False)
    return pool[rng.integers(0, len(pool), size=n)].astype(np.int64)


def run(ns, sorter, S):
    """One call of ``sorter``'s pass loop on ``S``, as its driver makes it."""
    if sorter == "distinct_improved":
        return ns.improved_passes(S, 0, len(S), int(S.min()), int(S.max()), 62, 1 << 62)
    L = np.zeros(2 * len(S) + 2, dtype=np.int64)
    return ns.stacked_passes(S, L, 0, len(S), int(S.min()), 0, len(S) + 1, 63)


def cell(A, B, sorter, n, ratio, rounds, seed):
    """Mean time per call of ``A`` and of ``B`` in each round."""
    keys = keys_for(sorter, n, ratio, seed)
    calls = max(1, 200_000 // n)
    times = {id(A): [], id(B): []}
    for r in range(rounds):
        total = {id(A): 0, id(B): 0}
        for c in range(calls):
            left = {}
            for ns in (A, B) if (r + c) % 2 == 0 else (B, A):
                S = keys.copy()
                t0 = time.perf_counter_ns()
                result = run(ns, sorter, S)
                total[id(ns)] += time.perf_counter_ns() - t0
                left[id(ns)] = (tuple(result), S.tobytes())
            assert left[id(A)] == left[id(B)], (sorter, n, ratio)
        for k in total:
            times[k].append(total[k] / calls)
    return times[id(A)], times[id(B)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--rounds", type=int, default=41)
    parser.add_argument("--sizes", default="5000,100000")
    parser.add_argument("--ratios", default="1,3,10,30,100")
    parser.add_argument("--sorters", default="distinct_improved,assoc_rec")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as directory:
        A = bind(args.base, directory, "base")
        B = bind(args.new, directory, "new")
        for sorter in args.sorters.split(","):
            for n in map(int, args.sizes.split(",")):
                for ratio in map(int, args.ratios.split(",")):
                    ta, tb = cell(A, B, sorter, n, ratio, args.rounds, args.seed)
                    qa = np.percentile(ta, [25, 50, 75])
                    qb = np.percentile(tb, [25, 50, 75])
                    print(f"{sorter:17s} n={n:<6d} m/n={ratio:<3d} "
                          f"base {qa[1] / 1e3:9.1f} us  new {qb[1] / 1e3:9.1f} us  "
                          f"ratio {qa[1] / qb[1]:.3f}  base IQR {(qa[2] - qa[0]) / qa[1]:.3f}  "
                          f"[{qa[1] / qb[2]:.3f}, {qa[1] / qb[0]:.3f}]", flush=True)


if __name__ == "__main__":
    main()
