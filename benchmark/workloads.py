"""The benchmark's workloads: seeded instances, the calls that sort them,
and the verifier that checks every output against ``np.sort``.

One *operation* is a list of :class:`Call` objects, each sorting one
freshly drawn array in place through the package's public functions.
Instances come from the benchmark's own generator; ``assocsort.bench`` is
not used, so a change to the package's generators cannot change what
the benchmark measures.
"""

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

import assocsort

# Which driver module (``src/assocsort/<module>.py``) each sorter runs in.
DRIVER_OF = {
    "assoc_improved": "improved",
    "distinct_improved": "improved",
    "assoc_seq": "core",
    "assoc_rec": "core",
    "cycle_distinct": "cycle_leader",
    "sort_by_key": "ranksort",
}


@dataclass
class Call:
    """One in-place sort: ``keys`` (and ``payload``) are overwritten."""

    algo: str
    keys: np.ndarray
    payload: Optional[np.ndarray] = None
    one_pass: bool = False  # the variant promises a single pass on this input

    @property
    def driver(self) -> str:
        return DRIVER_OF[self.algo]

    @property
    def nbytes(self) -> int:
        extra = 0 if self.payload is None else self.payload.nbytes
        return self.keys.nbytes + extra

    def run(self) -> assocsort.OpCounters:
        if self.algo == "sort_by_key":
            return assocsort.sort_by_key(self.keys, self.payload)
        if self.algo == "assoc_improved":
            return assocsort.sort(self.keys)  # the library's default call
        return assocsort.ALGORITHMS[self.algo](self.keys)


def _dense_sort(rng: np.random.Generator, n: int) -> List[Call]:
    keys = rng.integers(0, n, size=n, dtype=np.int64)
    return [Call("assoc_improved", keys, one_pass=True)]


def _sparse_sort(rng: np.random.Generator, n: int) -> List[Call]:
    keys = rng.integers(0, 100 * n, size=n, dtype=np.int64)
    return [Call("assoc_improved", keys)]


def _rank_pairs(rng: np.random.Generator, n: int) -> List[Call]:
    keys = rng.integers(0, max(n // 4, 1), size=n, dtype=np.int64)
    return [Call("sort_by_key", keys, np.arange(n, dtype=np.int64))]


def _paper_variants(rng: np.random.Generator, n: int) -> List[Call]:
    # Half as many distinct keys as elements, so every key repeats about
    # twice, spread over a range of 100n.
    pool = rng.choice(100 * n, size=max(n // 2, 1), replace=False)
    dup = pool[rng.integers(0, len(pool), size=n)].astype(np.int64)
    distinct = rng.choice(100 * n, size=n, replace=False).astype(np.int64)
    return [
        Call("assoc_seq", dup.copy()),
        Call("assoc_rec", dup),
        Call("cycle_distinct", distinct.copy()),
        Call("distinct_improved", distinct),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[np.random.Generator, int], List[Call]]
    n: int
    tiny_n: int  # size used by the self-test

    def rng(self, seed: int) -> np.random.Generator:
        """The seeded stream every operation of one run draws from."""
        return np.random.default_rng([seed, zlib.crc32(self.name.encode())])


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dense-sort", _dense_sort, n=2**17, tiny_n=256),
        Workload("sparse-sort", _sparse_sort, n=5000, tiny_n=64),
        Workload("rank-pairs", _rank_pairs, n=2**15, tiny_n=256),
        Workload("paper-variants", _paper_variants, n=5000, tiny_n=64),
    )
}


def verify(call: Call, before: np.ndarray, counters) -> Optional[str]:
    """Why ``call``'s output is wrong, or ``None`` when it is right.

    ``before`` is a copy of the keys taken before the call.  The check
    reads the array object that was passed in, so a sorter that left its
    result anywhere else fails it.  The expected keys are computed apart
    from the package, by ``np.sort``.
    """
    K = call.keys
    if not isinstance(counters, assocsort.OpCounters):
        return f"returned {type(counters).__name__}, not OpCounters"
    if K.dtype != np.int64 or K.shape != before.shape:
        return f"array became {K.dtype}{K.shape}, was {before.dtype}{before.shape}"
    expected = np.sort(before)
    if not np.array_equal(K, expected):
        bad = int(np.flatnonzero(K != expected)[0])
        return f"key {int(K[bad])} at index {bad}, expected {int(expected[bad])}"
    if call.one_pass and counters.passes != 1:
        return f"{counters.passes} passes where max - min < n promises 1"
    if call.payload is not None:
        P = call.payload
        if not np.array_equal(np.sort(P), np.arange(len(before))):
            return "payload is not a permutation of the original indices"
        if not np.array_equal(before[P], K):
            return "a payload no longer travels with its key"
    return None
