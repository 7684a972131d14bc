"""Golden counters: every sorter's output, counters and trace, pinned.

For a fixed seeded set of instances per registry entry (plus
``sort_by_key`` with a random payload) this pins a digest of the sorted
output (and of the payload for the rank sorts), the four ``OpCounters``
fields, and, for arrays of at most 64 words, a digest of every
``(phase, pass, snapshot)`` trace call.  The instances cover word widths
``w`` in {4, 6, 8, 32, 63}, duplicate-heavy and distinct keys, and key
ranges ``m`` from ``n / 100`` to ``100 n`` above a random offset.

Any change to a driver that alters a single word move, pass or trace
call shows up here, on every backend that runs.  The golden values live
in ``golden_counters.json``; regenerate them with
``PYTHONPATH=src python -m tests.test_golden`` only at a commit whose
sorting behaviour is trusted.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from assocsort.adapter import ALGORITHMS
from assocsort.counters import OpCounters
from assocsort.ranksort import sort_by_key
from assocsort.words import WordConfig

GOLDEN = Path(__file__).with_name("golden_counters.json")
WIDTHS = (4, 6, 8, 32, 63)
KINDS = ("dup", "distinct")
RATIOS = (0.01, 0.5, 1.0, 10.0, 100.0)
SIZES = (1, 2, 3, 17, 64, 250, 1000)
TRACE_LIMIT = 64
DISTINCT_ONLY = {"cycle_distinct", "distinct_improved"}
SORTERS = sorted(ALGORITHMS) + ["sort_by_key"]


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _instances(algo):
    """``(case_id, w, keys)`` for every feasible grid point of ``algo``."""
    rng = np.random.default_rng([0x601D, SORTERS.index(algo)])
    for w in WIDTHS:
        cfg = WordConfig(w)
        for kind in KINDS:
            if algo in DISTINCT_ONLY and kind != "distinct":
                continue
            for ratio in RATIOS:
                for n in sorted({min(n, cfg.tag_mask) for n in SIZES}):
                    m = min(max(1, int(round(ratio * n))), cfg.max_key + 1)
                    if kind == "distinct" and m < n:
                        continue
                    offset = int(rng.integers(0, cfg.max_key + 2 - m))
                    if kind == "distinct":
                        keys = rng.choice(m, size=n, replace=False)
                    else:
                        pool = rng.integers(0, m, size=max(1, n // 4))
                        keys = pool[rng.integers(0, len(pool), size=n)]
                    case = f"{algo}/w{w}/{kind}/r{ratio:g}/n{n}"
                    yield case, w, keys.astype(np.int64) + offset


def _record(algo, w, keys):
    """The golden record of one sort: ``[output digest, payload digest,
    passes, moves, node_creations, max_depth, trace calls, trace digest]``."""
    cfg = WordConfig(w)
    S = keys.copy()
    c = OpCounters()
    calls = []
    trace = None
    if len(S) <= TRACE_LIMIT:
        trace = lambda ph, p, a: calls.append((ph, int(p), _digest(a)))
    P = None
    if algo == "sort_by_key":
        P = np.random.default_rng(len(S)).integers(0, 10**9, size=len(S))
        sort_by_key(S, P, cfg, c, trace)
    else:
        ALGORITHMS[algo](S, cfg=cfg, counters=c, trace=trace)
    trace_digest = None
    if trace is not None:
        trace_digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()[:16]
    return [
        _digest(S),
        None if P is None else _digest(P),
        c.passes,
        c.moves,
        c.node_creations,
        c.max_depth,
        len(calls),
        trace_digest,
    ]


def _records(algo):
    return {case: _record(algo, w, keys) for case, w, keys in _instances(algo)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("algo", SORTERS)
def test_golden_counters(backend, algo, golden):
    got = _records(algo)
    expect = {case: rec for case, rec in golden.items() if case.startswith(algo + "/")}
    assert list(got) == list(expect)
    for case, rec in got.items():
        assert rec == expect[case], case


if __name__ == "__main__":
    lines = [
        f"{json.dumps(case)}: {json.dumps(rec)}"
        for algo in SORTERS
        for case, rec in _records(algo).items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
