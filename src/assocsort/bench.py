"""Benchmark harness: generators, baselines, timing, verification, CSV.

Rows time only the sort call (``time.perf_counter_ns``); generation and
verification happen outside the measured region, and kernels are warmed
before the first trial so a first C build is never measured.

Instance data is reproducible across runs and machines: every instance
derives its stream from ``numpy.random.SeedSequence((seed, n, m, trial))``
under PCG64, so rows with equal ``(seed, n, m, dist, trial)`` always
sort the same words.
"""

import time
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, Iterable, List, Sequence

import numpy as np

from .adapter import resolve_algorithm
from .backend import active, warmup
from .counters import OpCounters
from .errors import VerificationError
from .words import WordConfig

CSV_HEADER = "algo,n,m,dist,seed,trial,elapsed_ns,passes,moves,node_creations,verified"

TRACE_LIMIT = 64  # arrays longer than this are never traced


def _rng(seed: int, n: int, m: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, n, m, trial))))


def gen_uniform(n: int, m: int, seed: int, trial: int = 0) -> np.ndarray:
    """``n`` keys drawn uniformly from ``[0, m)``."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return _rng(seed, n, m, trial).integers(0, m, size=n, dtype=np.int64)


def gen_exponential(n: int, m: int, seed: int, trial: int = 0) -> np.ndarray:
    """``n`` keys from an exponential of scale ``m / 8``, clipped to ``[0, m)``."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    raw = _rng(seed, n, m, trial).exponential(scale=m / 8, size=n)
    return np.clip(np.floor(raw), 0, m - 1).astype(np.int64)


def gen_distinct(n: int, m: int, seed: int, trial: int = 0) -> np.ndarray:
    """``n`` distinct keys from ``[0, m)``, in random order."""
    if m < n:
        raise ValueError(f"cannot draw {n} distinct keys from [0, {m})")
    rng = _rng(seed, n, m, trial)
    if m <= 16 * max(n, 1):
        return rng.choice(m, size=n, replace=False).astype(np.int64)
    # Sparse draw: rejection sampling avoids materialising [0, m).
    seen = set()
    out = np.empty(n, dtype=np.int64)
    count = 0
    while count < n:
        for v in rng.integers(0, m, size=2 * (n - count) + 8):
            if v not in seen:
                seen.add(int(v))
                out[count] = v
                count += 1
                if count == n:
                    break
    return out


GENERATORS: Dict[str, Callable[..., np.ndarray]] = {
    "uniform": gen_uniform,
    "exponential": gen_exponential,
    "distinct": gen_distinct,
}


def npsort_baseline(S: np.ndarray, cfg=None, counters=None) -> OpCounters:
    """numpy's introsort, in place (the reference competitor)."""
    counters = counters if counters is not None else OpCounters()
    S.sort()
    return counters


def counting_sort_baseline(S: np.ndarray, cfg=None, counters=None, cap: int = 1 << 26) -> OpCounters:
    """Vectorised counting sort; refuses ranges wider than ``cap``."""
    counters = counters if counters is not None else OpCounters()
    if len(S) == 0:
        return counters
    mn = int(S.min())
    width = int(S.max()) - mn + 1
    if width > cap:
        raise ValueError(f"key range {width} exceeds counting-sort cap {cap}")
    counts = np.bincount(S - mn, minlength=width)
    S[:] = np.repeat(np.arange(width, dtype=np.int64) + mn, counts)
    counters.passes = 1
    counters.moves += len(S)
    return counters


def lsd_radix_baseline(S: np.ndarray, cfg=None, counters=None) -> OpCounters:
    """LSD radix sort, 8-bit digits, through the active kernel backend;
    refuses negative keys, whose digits it cannot order."""
    counters = counters if counters is not None else OpCounters()
    n = len(S)
    if n == 0:
        return counters
    if int(S.min()) < 0:
        raise ValueError(f"LSD radix sort takes keys >= 0, not {int(S.min())}")
    k = active()
    mx = int(S.max())
    src = S
    dst = np.empty_like(S)
    shift = 0
    while True:
        k.radix_pass(src, dst, n, shift)
        counters.passes += 1
        counters.moves += n
        src, dst = dst, src
        shift += 8
        if mx >> shift == 0:
            break
    if src is not S:
        S[:] = src
        counters.moves += n
    return counters


BASELINES: Dict[str, Callable[..., OpCounters]] = {
    "npsort": npsort_baseline,
    "counting": counting_sort_baseline,
    "lsd_radix": lsd_radix_baseline,
}


def verify(out: np.ndarray, orig: np.ndarray, label: str = "") -> None:
    """Check ``out`` against ``numpy.sort(orig)``; raise with the first
    divergent index otherwise."""
    ref = np.sort(orig)
    if np.array_equal(out, ref):
        return
    if len(out) != len(ref):
        raise VerificationError(f"{label}: output length {len(out)} != {len(ref)}")
    idx = int(np.argmax(out != ref))
    raise VerificationError(
        f"{label}: first divergence at index {idx}: "
        f"got {int(out[idx])}, expected {int(ref[idx])}",
        index=idx,
    )


@dataclass
class BenchRow:
    algo: str
    n: int
    m: int
    dist: str
    seed: int
    trial: int
    elapsed_ns: int
    passes: int
    moves: int
    node_creations: int
    verified: int

    def csv_line(self) -> str:
        return (
            f"{self.algo},{self.n},{self.m},{self.dist},{self.seed},"
            f"{self.trial},{self.elapsed_ns},{self.passes},{self.moves},"
            f"{self.node_creations},{self.verified}"
        )


def write_csv(rows: Iterable[BenchRow], path: str) -> None:
    """Write rows with the fixed header, LF line endings, UTF-8."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_line() + "\n")


def make_trace_writer(fh, cfg: WordConfig):
    """Driver trace callback that emits one JSON line per phase snapshot."""
    import json

    def writer(phase: str, pass_idx: int, snapshot: np.ndarray) -> None:
        words = [
            {"word": int(v) & cfg.value_mask, "tagged": bool(v & cfg.tag_mask)}
            for v in snapshot
        ]
        fh.write(json.dumps({"phase": phase, "pass": int(pass_idx), "array": words}))
        fh.write("\n")

    return writer


def feasible(algo: str, n: int, m: int, dist: str, cfg: WordConfig) -> bool:
    """Whether an instance fits the word model and the algorithm's contract."""
    if n < 1 or m < 1:
        return False
    if n > cfg.tag_mask or m > cfg.tag_mask:
        return False
    if dist == "distinct" and m < n:
        return False
    if algo in ("cycle_distinct", "distinct_improved") and dist != "distinct":
        return False
    return True


def run_bench(
    algos: Sequence[str],
    ns: Sequence[int],
    ratios: Sequence[float],
    dists: Sequence[str],
    seed: int = 0,
    trials: int = 3,
    w: int = 63,
    do_verify: bool = False,
    trace=None,
    warm: bool = True,
) -> List[BenchRow]:
    """Time every feasible (algo, n, ratio, dist, trial) combination.

    ``trace`` is a driver trace callback (see :func:`make_trace_writer`),
    attached only when the array is at most ``TRACE_LIMIT`` words and the
    algorithm supports snapshots.  Verification runs after timing.
    """
    cfg = WordConfig(w)
    rows: List[BenchRow] = []
    pending = []
    if warm:
        warmup()
    for algo in algos:
        sorter = BASELINES.get(algo)
        is_baseline = sorter is not None
        if not is_baseline:
            sorter = resolve_algorithm(algo)
        for n in ns:
            for ratio in ratios:
                m = max(1, int(round(n * ratio)))
                for dist in dists:
                    if not is_baseline and not feasible(algo, n, m, dist, cfg):
                        continue
                    if is_baseline and (n < 1 or (dist == "distinct" and m < n)):
                        continue
                    for trial in range(trials):
                        data = GENERATORS[dist](n, m, seed, trial)
                        orig = data.copy() if do_verify else None
                        counters = OpCounters()
                        kwargs = {}
                        if not is_baseline and trace is not None and n <= TRACE_LIMIT:
                            kwargs["trace"] = trace
                        t0 = time.perf_counter_ns()
                        sorter(data, cfg=cfg, counters=counters, **kwargs)
                        elapsed = time.perf_counter_ns() - t0
                        row = BenchRow(
                            algo, n, m, dist, seed, trial, elapsed,
                            int(counters.passes), int(counters.moves),
                            int(counters.node_creations), 0,
                        )
                        rows.append(row)
                        if do_verify:
                            label = f"{algo} n={n} m={m} {dist} trial={trial}"
                            pending.append((row, data, orig, label))
    for row, out, orig, label in pending:
        verify(out, orig, label)
        row.verified = 1
    return rows


def summarize(rows: Sequence[BenchRow]) -> List[str]:
    """Median elapsed time per (algo, n, m, dist) group, as text lines."""
    groups: Dict[tuple, List[int]] = {}
    for r in rows:
        groups.setdefault((r.algo, r.n, r.m, r.dist), []).append(r.elapsed_ns)
    lines = []
    for (algo, n, m, dist), times in sorted(groups.items()):
        med = median(times)
        lines.append(
            f"{algo:>18} n={n:<9} m={m:<11} {dist:<12} "
            f"median {med / 1e6:10.3f} ms over {len(times)} trial(s)"
        )
    return lines
