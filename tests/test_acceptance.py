"""Acceptance sweep: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Each test is self-contained and deterministic;
criteria 1 and 3 share one instance grid through a module fixture.

Criterion 3 asserts a pass bound the implementation does not meet (see
its docstring for the analysis) and is expected to fail.

The timing criteria (5 and 10) run on the fastest backend that can run
here -- the C kernels, else the plain kernels -- and print which one
they timed.  The backend is pinned explicitly rather
than read from the process-global default, which other tests (e.g. the
CLI's ``--backend`` flag) may leave changed.
"""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

import assocsort
from assocsort.adapter import ALGORITHMS
from assocsort.backend import (
    BACKENDS,
    _KERNEL_NAMES,
    _LOOP_NAMES,
    available,
    use_backend,
    warmup,
)
from assocsort.bench import GENERATORS, gen_distinct, gen_uniform
from assocsort.cli import main as cli_main
from assocsort import kernels
from assocsort.core import run_loop, sort_associative, sort_associative_recursive
from assocsort.counters import OpCounters
from assocsort.cycle_leader import sort_distinct_keys
from assocsort.improved import sort_distinct_improved, sort_improved
from assocsort.ranksort import sort_by_key
from assocsort.words import WordConfig

SEED = 777
SMALL_NS = (0, 1, 2, 3, 10, 100)
BIG_N = 10_000
WIDTHS = (8, 16, 32, 63)
RATIOS = (0.01, 1.0, 10.0, 100.0)
DISTINCT_ONLY = {"cycle_distinct", "distinct_improved"}
CFGS = {w: WordConfig(w) for w in WIDTHS}
PER_ALGO = 10_000
BIG_PER_ALGO = 24
# Fastest backend that can run here; the timing criteria pin it explicitly.
TIMED_BACKEND = next(name for name in BACKENDS if available(name))


def _feasible(algo, n, m, w, dist):
    slots = 1 << (w - 1)
    if n > slots or m > slots:
        return False
    if dist == "distinct" and m < n:
        return False
    if algo in DISTINCT_ONLY and dist != "distinct":
        return False
    return True


def _run_grid(algo_idx, algo, fn):
    """PER_ALGO deterministic instances; returns (n, m, w, dist, ok, passes) rows."""
    rng = np.random.default_rng(0xACC0 + algo_idx)
    dists = ("distinct",) if algo in DISTINCT_ONLY else tuple(GENERATORS)
    rows = []
    count = 0
    while count < PER_ALGO:
        n = BIG_N if count < BIG_PER_ALGO else SMALL_NS[int(rng.integers(len(SMALL_NS)))]
        w = WIDTHS[int(rng.integers(len(WIDTHS)))]
        dist = dists[int(rng.integers(len(dists)))]
        ratio = RATIOS[int(rng.integers(len(RATIOS)))]
        m = max(1, int(round(ratio * n)))
        if not _feasible(algo, n, m, w, dist):
            continue
        vals = GENERATORS[dist](n, m, seed=SEED, trial=count)
        S = vals.copy()
        c = OpCounters()
        fn(S, cfg=CFGS[w], counters=c)
        ok = bool(np.array_equal(S, np.sort(vals)))
        rows.append((n, m, w, dist, ok, c.passes))
        count += 1
    return rows


@pytest.fixture(scope="module")
def instance_grid():
    """10^4 randomized instances per algorithm over the full parameter grid."""
    warmup()
    return {
        algo: _run_grid(i, algo, fn)
        for i, (algo, fn) in enumerate(sorted(ALGORITHMS.items()))
    }


def test_criterion_01_oracle_equivalence(instance_grid):
    """Every algorithm sorts 10^4 randomized instances exactly.

    n in {0,1,2,3,10,100,10^4}, w in {8,16,32,63}, uniform/exponential/
    distinct inputs, key ranges from n/100 to 100n; zero tolerance.
    """
    for algo, rows in instance_grid.items():
        assert len(rows) == PER_ALGO
        bad = [r for r in rows if not r[4]]
        assert not bad, f"{algo}: {len(bad)} mis-sorted instances, first {bad[:3]}"
        big = sum(1 for r in rows if r[0] == BIG_N)
        assert big >= BIG_PER_ALGO
    print(f"criterion 1: {len(instance_grid) * PER_ALGO} instances exact")


def test_criterion_02_exhaustive_small_instances():
    """All multisets with n <= 7 over keys [0,7] sort exactly.

    Runs the four general sorters on every multiset (ascending and a
    seeded shuffle) at w=8.  At w=8 these sizes never need a companion
    word (the count always packs), so the whole sweep repeats at w=4,
    where the companion budget is live from n=3; the distinct-key
    sorters get every subset of [0,8) at both widths.
    """
    general = ["assoc_seq", "assoc_rec", "assoc_improved", "perm_rank"]
    rng = np.random.default_rng(0xE44)
    cfg4 = WordConfig(4)
    checked = 0
    for k in range(8):
        for multi in itertools.combinations_with_replacement(range(8), k):
            expect = list(multi)
            shuffled = np.array(multi, dtype=np.int64)
            rng.shuffle(shuffled)
            arrangements_by_cfg = (
                (CFGS[8], (np.array(multi, dtype=np.int64), shuffled)),
                (cfg4, (shuffled,)),
            )
            for cfg, arrangements in arrangements_by_cfg:
                for algo in general:
                    for arr_ in arrangements:
                        S = arr_.copy()
                        ALGORITHMS[algo](S, cfg=cfg)
                        assert S.tolist() == expect, (algo, cfg.w, multi)
                        checked += 1
    for k in range(9):
        for sub in itertools.combinations(range(8), k):
            expect = list(sub)
            shuffled = np.array(sub, dtype=np.int64)
            rng.shuffle(shuffled)
            for algo in sorted(DISTINCT_ONLY):
                for cfg in (CFGS[8], cfg4):
                    S = shuffled.copy()
                    ALGORITHMS[algo](S, cfg=cfg)
                    assert S.tolist() == expect, (algo, cfg.w, sub)
                    checked += 1
    print(f"criterion 2: {checked} exhaustive instances exact")


def test_criterion_03_pass_bound(instance_grid):
    """Measured passes stay within floor((2m-1)/(n-1)) + 1.

    This asserts the stated bound and is EXPECTED TO FAIL: the bound
    presumes every pass consumes a full n-sized interval, but a pass
    only spans ``live - epsilon`` slots of the *remaining* segment, and
    duplicates plus shrinking segments make later intervals narrower,
    not wider.  Measured: 727 grid instances exceed it, 382 of them
    ``cycle_distinct`` and 229 ``perm_rank``, whose passes cover only the
    live segment; at uniform n=100, m=10n ``perm_rank`` needs 20-26
    passes against a bound of 21; the first failures the test prints are
    ``assoc_improved`` at n=10^4, m=100n: 324 and 219 passes on
    exponential keys and 209 on distinct ones, against 201.  The module
    tests pin the true envelopes instead; this line stays red as a
    faithful record of the gap.
    """
    violations = []
    for algo, rows in instance_grid.items():
        for n, m, w, dist, ok, passes in rows:
            if n < 2:
                continue
            bound = (2 * m - 1) // (n - 1) + 1
            if passes > bound:
                violations.append((algo, n, m, dist, passes, bound))
    assert not violations, (
        f"{len(violations)} instances exceed the stated pass bound; "
        f"first three: {violations[:3]}"
    )


def test_criterion_04_single_pass_claims():
    """assoc_improved finishes in one pass when m <= n; distinct_improved
    finishes in one pass when m < (w-1) * n."""
    for n in (10, 100, 1000, 10_000):
        for w in (16, 32, 63):
            if n > CFGS[w].tag_mask:
                continue
            for dist in ("uniform", "exponential"):
                for m in (max(1, n // 2), n):
                    vals = GENERATORS[dist](n, m, seed=SEED, trial=n + w)
                    S = vals.copy()
                    c = OpCounters()
                    sort_improved(S, CFGS[w], c)
                    assert np.array_equal(S, np.sort(vals))
                    assert c.passes == 1, (n, w, dist, m, c.passes)
    for n in (10, 100, 1000):
        for w in (16, 32, 63):
            m = min((w - 1) * n - 1, CFGS[w].tag_mask)
            vals = gen_distinct(n, m, seed=SEED, trial=w)
            S = vals.copy()
            c = OpCounters()
            sort_distinct_improved(S, CFGS[w], c)
            assert np.array_equal(S, np.sort(vals))
            assert c.passes == 1, (n, w, m, c.passes)


def test_criterion_05_linear_scaling():
    """Doubling n (uniform, m = n) scales median elapsed by 1.5-2.8x,
    timed on the fastest installed backend.  The two sizes alternate,
    trial by trial, so that load that comes and goes meets both.

    At w = 32 each size sorts in one pass of count nodes: keys of 21 and 22
    bits leave floor(31/21) = floor(31/22) = 1 field to a node, so the
    pass cannot pack.  It defers no key and its keys fill most of its
    segment, so it is dense-last (``kernels.dense_last``): practice runs as
    interleaved cursors and, with over a third of the keys repeated,
    storage and retrieval run by mask.  This is the only tier-1 test that
    times those count-node paths: a build with them deleted read 2.88 and
    3.24, outside the bounds."""
    cfg = CFGS[32]

    def elapsed(n, trial):
        S = gen_uniform(n, n, seed=SEED, trial=trial)
        t0 = time.perf_counter_ns()
        sort_improved(S, cfg)
        return time.perf_counter_ns() - t0

    times = {1 << 20: [], 1 << 21: []}
    with use_backend(TIMED_BACKEND):
        warmup()
        for trial in range(5):
            elapsed(1 << 16, trial)  # touch the full code path untimed
        for trial in range(5):
            for n, ns in times.items():
                ns.append(elapsed(n, trial))
    t_small, t_big = (sorted(ns)[2] for ns in times.values())
    ratio = t_big / t_small
    print(f"criterion 5 [{TIMED_BACKEND}]: t(2^21)/t(2^20) = {ratio:.3f}")
    assert 1.5 <= ratio <= 2.8, f"scaling ratio {ratio:.3f} outside [1.5, 2.8]"


def test_criterion_06_constant_auxiliary_space():
    """Iterative sorters use O(1) auxiliary words; the recursive driver's
    level buffer grows by two words per level.

    Accounting is threefold: every kernel, driver and the shared pass
    loop runs on at most 64 local variable slots (the only per-call
    storage of the compiled loops); traced allocations during a sort are a few hundred bytes of
    scalar boxing and do not grow when n grows 16-fold; and the
    recursive driver's allocation peak, on keys that take one level per
    key, grows by at most 20 bytes per extra level (16 for its two words).
    """
    drivers = [
        run_loop,
        sort_associative,
        sort_associative_recursive,
        sort_improved,
        sort_distinct_keys,
        sort_distinct_improved,
        sort_by_key,
    ]
    helpers = ("pass_interval", "pass_budget", "practice_store", "dense_last")
    for name in _KERNEL_NAMES + _LOOP_NAMES + helpers:
        if name == "radix_pass":  # baseline only: owns a 256-word histogram
            continue
        fn = getattr(kernels, name)
        assert fn.__code__.co_nlocals <= 64, name
    for fn in drivers:
        assert fn.__code__.co_nlocals <= 64, fn.__name__

    def peak_bytes(fn, data):
        fn(data.copy(), CFGS[32])  # warm this exact path
        S = data.copy()
        tracemalloc.start()
        fn(S, CFGS[32])
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    for fn, gen in (
        (sort_associative, gen_uniform),
        (sort_improved, gen_uniform),
        (sort_distinct_keys, gen_distinct),
    ):
        small = peak_bytes(fn, gen(4096, 8192, seed=SEED, trial=0))
        big = peak_bytes(fn, gen(65536, 131072, seed=SEED, trial=0))
        assert small <= 8192, (fn.__name__, small)
        assert abs(big - small) <= 1024, (fn.__name__, small, big)

    def stride_peak(n):
        """Peak of an untraced recursive sort of ``n`` keys ``8n`` apart,
        which stacks ``n`` levels: at w = 32 and these ``n``, no pass
        interval, packed ones included, spans ``8n`` keys."""
        vals = (np.arange(n, dtype=np.int64) * (8 * n))
        vals = vals[np.random.default_rng(SEED).permutation(n)]
        c = OpCounters()
        tracemalloc.start()
        sort_associative_recursive(vals, CFGS[32], c)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert np.all(vals[:-1] < vals[1:]) and c.max_depth == n
        return peak

    stride_peak(100)  # warm this exact path
    per_level = (stride_peak(3000) - stride_peak(1000)) / 2000
    assert per_level <= 20, per_level


def test_criterion_07_rank_payload_correctness():
    """perm_rank with payload = original index: 10^3 instances, each
    output key equals the original key its payload points back to, and
    the payloads form a permutation."""
    rng = np.random.default_rng(0x9A9)
    for trial in range(1000):
        n = int(rng.integers(1, 400))
        m = max(1, int(rng.integers(1, 4 * n)))
        orig = gen_uniform(n, m, seed=SEED, trial=trial)
        K = orig.copy()
        P = np.arange(n, dtype=np.int64)
        sort_by_key(K, P, CFGS[32])
        assert np.all(K[:-1] <= K[1:])
        assert np.array_equal(orig[P], K)
        assert np.array_equal(np.sort(P), np.arange(n))


def test_criterion_08_online_prefix():
    """After pass 1 the emitted prefix already equals the same-length
    prefix of the fully sorted array."""
    rng = np.random.default_rng(0x801)
    cfg = CFGS[32]
    for trial in range(20):
        n = 256
        orig = gen_uniform(n, 8 * n, seed=SEED, trial=trial)
        orig[0] = 0
        orig[1] = 8 * n - 1  # guarantee a deferred tail
        rng.shuffle(orig)
        snapshots = []
        K = orig.copy()
        P = np.arange(n, dtype=np.int64)
        c = sort_by_key(K, P, cfg, trace=lambda ph, p, a: snapshots.append((ph, p, a)))
        assert c.passes > 1
        after_pass1 = next(a for ph, p, a in snapshots if ph == "restore" and p == 1)
        h = int(np.count_nonzero(orig < int(orig.min()) + n))
        assert h < n
        full = np.sort(orig)
        assert np.array_equal(after_pass1[:h], full[:h])


def test_criterion_09_csv_reproducibility(tmp_path):
    """Two bench runs with identical flags and seed differ only in the
    elapsed_ns column, byte for byte."""
    argv_tail = [
        "--algo", "assoc_improved", "--algo", "lsd_radix",
        "--n", "64", "--n", "128", "--ratio", "1.0", "--ratio", "10.0",
        "--dist", "uniform", "--dist", "exponential",
        "--trials", "2", "--seed", "42", "--w", "32", "--verify",
    ]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        rc = cli_main(["run", *argv_tail, "--csv", str(path)])
        assert rc == 0

    def normalized(path):
        lines = path.read_text(encoding="utf-8").split("\n")
        out = [lines[0]]
        for line in lines[1:]:
            if not line:
                out.append(line)
                continue
            parts = line.split(",")
            parts[6] = "0"
            out.append(",".join(parts))
        return out

    a, b = normalized(paths[0]), normalized(paths[1])
    assert a == b
    assert len(a) > 10  # header + 16 rows + trailing newline


def test_criterion_10_report_timing_ratios():
    """Log elapsed ratios against the library sort and LSD radix at
    n = 10^6, m = n, uniform, w = 63, on the fastest installed backend.
    Report-only: machine-bound figures are recorded, never gated."""
    cfg = CFGS[63]

    def median3(fn):
        times = []
        for trial in range(3):
            S = gen_uniform(10**6, 10**6, seed=SEED, trial=trial)
            t0 = time.perf_counter_ns()
            fn(S)
            times.append(time.perf_counter_ns() - t0)
        return sorted(times)[1]

    with use_backend(TIMED_BACKEND):
        warmup()
        t_assoc = median3(lambda S: sort_improved(S, cfg))
        t_np = median3(lambda S: S.sort())
        t_radix = median3(lambda S: assocsort.bench.lsd_radix_baseline(S))
    print(
        f"criterion 10 [{TIMED_BACKEND}]: assoc_improved {t_assoc / 1e6:.1f} ms, "
        f"npsort {t_np / 1e6:.1f} ms ({t_assoc / t_np:.2f}x), "
        f"lsd_radix {t_radix / 1e6:.1f} ms ({t_assoc / t_radix:.2f}x)"
    )
    assert t_assoc > 0 and t_np > 0 and t_radix > 0
