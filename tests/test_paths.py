"""The traced and untraced paths of every sorter agree.

An untraced improved sort runs all its passes in one ``improved_passes``
pass-loop call; a traced one calls a kernel per phase, so that the trace
sees each phase.  Both must leave the same keys and payload, the same
four ``OpCounters`` fields, and, when they fail, the same exception with
the same message.  The other sorters take one path either way and are
held to the same rule.

``improved_passes`` is also fed corrupted segments directly: every
backend must stop at the same failed check with the same numbers.
"""

import re

import numpy as np
import pytest

from assocsort import kernels
from assocsort.adapter import ALGORITHMS
from assocsort.backend import BACKENDS, active_loops, available, use_backend
from assocsort.core import run_passes
from assocsort.counters import OpCounters
from assocsort.errors import CorruptStateError, DuplicateKeyError
from assocsort.improved import _fail
from assocsort.ranksort import sort_by_key
from assocsort.words import WordConfig

SORTERS = sorted(ALGORITHMS) + ["sort_by_key"]
DISTINCT_ONLY = {"cycle_distinct", "distinct_improved"}
WIDTHS = (4, 8, 32, 63)
SIZES = (1, 3, 8, 100, 2000)
RATIOS = (0.5, 1, 10, 100)


def _instances(sorter):
    """``(w, keys)`` over the grid; distinct-key sorters also get every
    instance with one key repeated."""
    rng = np.random.default_rng([0x7A7, SORTERS.index(sorter)])
    distinct = sorter in DISTINCT_ONLY
    for w in WIDTHS:
        cfg = WordConfig(w)
        for n in sorted({min(n, cfg.tag_mask) for n in SIZES}):
            for ratio in RATIOS:
                m = min(max(1, round(ratio * n)), cfg.max_key + 1)
                if distinct and m < n:
                    continue
                offset = int(rng.integers(0, cfg.max_key + 2 - m))
                if distinct:
                    keys = rng.choice(m, size=n, replace=False) + offset
                else:
                    keys = rng.integers(0, m, size=n) + offset
                yield w, keys
                if distinct and n > 1:
                    twice = keys.copy()
                    twice[rng.integers(n)] = twice[rng.integers(n)]
                    yield w, twice


def _outcome(sorter, w, keys, trace):
    cfg = WordConfig(w)
    S = keys.astype(np.int64)
    P = np.arange(len(S), dtype=np.int64) * 7 if sorter == "sort_by_key" else None
    c = OpCounters()
    try:
        if P is None:
            ALGORITHMS[sorter](S, cfg=cfg, counters=c, trace=trace)
        else:
            sort_by_key(S, P, cfg=cfg, counters=c, trace=trace)
        error = None
    except Exception as exc:  # the refusal itself is compared
        error = (type(exc).__name__, str(exc))
    return (
        S.tolist(),
        None if P is None else P.tolist(),
        (c.passes, c.moves, c.node_creations, c.max_depth),
        error,
    )


@pytest.mark.parametrize("sorter", SORTERS)
def test_traced_and_untraced_agree(backend, sorter):
    quiet = lambda phase, passes, snapshot: None
    errors = 0
    for w, keys in _instances(sorter):
        untraced = _outcome(sorter, w, keys, None)
        assert _outcome(sorter, w, keys, quiet) == untraced, (w, len(keys))
        errors += untraced[3] is not None
    # Each distinct-key sorter met repeated keys and refused them.
    assert (errors > 0) == (sorter in DISTINCT_ONLY)


# A corrupted segment for each failed check, as
# (keys, wm1, tag, delta, expected phase, expected status).  Words with
# the tag bit set were never made nodes by this pass.
CORRUPT = [
    ([22, 5, 14, 20, 3, 27, 9], 4, 16, 3, kernels.PHASE_DUPLICATE, 0),
    ([128, 50, 109, 198, 4, 225], 7, 128, 4, kernels.PHASE_STORE, kernels.STATUS_TAG_SCAN),
    ([12, 6, 7, 15, 28], 4, 16, 6, kernels.PHASE_PARTITION, 0),
    ([5, 1, 7, 2, 25], 0, 16, 1, kernels.PHASE_RETRIEVE, kernels.STATUS_COLLISION),
    ([5, 26, 24], 0, 16, 5, kernels.PHASE_PREFIX, 0),
    # An empty interval settles nothing: the loop stops instead of
    # starting every later pass at the same key.
    ([3, 1, 2], -1, 16, 1, kernels.PHASE_PREFIX, 0),
    ([3, 1, 2], 3, 0, 1, kernels.PHASE_PREFIX, 0),
]
RUNNABLE = [name for name in BACKENDS if available(name)]


def _passes_everywhere(keys, wm1, tag, delta):
    """``improved_passes`` on every backend: ``{backend: (result, words)}``."""
    got = {}
    for name in RUNNABLE:
        S = np.array(keys, dtype=np.int64)
        with use_backend(name):
            result = active_loops().improved_passes(S, 0, len(S), delta, wm1, tag)
        got[name] = (tuple(int(x) for x in result), tuple(S.tolist()))
    return got


@pytest.mark.parametrize("keys, wm1, tag, delta, phase, status", CORRUPT)
def test_corrupt_segment_fails_alike(keys, wm1, tag, delta, phase, status):
    got = _passes_everywhere(keys, wm1, tag, delta)
    assert len(set(got.values())) == 1, got
    result = got["numpy"][0]
    assert result[4:6] == (phase, status)


def test_random_corrupt_segments_agree(rng):
    phases = set()
    for _ in range(300):
        w = int(rng.choice([5, 8]))
        tag = 1 << (w - 1)
        S = rng.integers(0, tag, size=int(rng.integers(1, 9)))
        S[rng.random(len(S)) < 0.3] |= tag
        wm1 = int(rng.choice([0, w - 1]))
        got = _passes_everywhere(S.tolist(), wm1, tag, int((S & (tag - 1)).min()))
        assert len(set(got.values())) == 1, (S.tolist(), wm1, got)
        phases.add(got["numpy"][0][4])
    assert phases == {
        kernels.PHASE_OK, kernels.PHASE_DUPLICATE, kernels.PHASE_STORE,
        kernels.PHASE_PARTITION, kernels.PHASE_RETRIEVE, kernels.PHASE_PREFIX,
    }


def test_a_pass_that_settles_nothing_stops_both_paths():
    """``run_passes`` (the traced path) and ``improved_passes`` stop a
    pass that settles no word but defers a key with the same error."""
    S = np.array([3, 1, 2], dtype=np.int64)
    heads = []

    def idle(S, P, head, delta, cfg, counters, emit):
        heads.append(head)
        assert len(heads) == 1, "run_passes went on after a pass settled nothing"
        return 0, delta

    quiet = lambda phase, passes, snapshot: None
    message = "^sorted prefix stopped at 0 of 3$"
    with pytest.raises(CorruptStateError, match=message):
        run_passes(idle, S, WordConfig(8), None, quiet)
    # An empty interval (``tag = 0``) settles nothing in the loop.
    got = _passes_everywhere(S.tolist(), 3, 0, 1)
    assert len(set(got.values())) == 1, got
    _, _, _, _, phase, status, a, b = got["numpy"][0]
    with pytest.raises(CorruptStateError, match=message):
        _fail(phase, status, a, b)


@pytest.mark.parametrize(
    "phase, status, a, b, error, message",
    [
        (kernels.PHASE_DUPLICATE, 0, 5, 0, DuplicateKeyError, "key 5 occurs more than once"),
        (kernels.PHASE_STORE, -4, 3, 4, CorruptStateError,
         "found 3 tagged words while parking 4 records"),
        (kernels.PHASE_PARTITION, 0, 2, 1, CorruptStateError,
         "2 idle words in the tail, expected 1"),
        (kernels.PHASE_RETRIEVE, -3, 0, 0, CorruptStateError,
         "node-scan retrieval failed (status -3)"),
        (kernels.PHASE_RETRIEVE, -3, 7, 0, CorruptStateError,
         "bitmap retrieval failed (status -3)"),
        (kernels.PHASE_PREFIX, 0, 3, 5, CorruptStateError, "sorted prefix stopped at 3 of 5"),
    ],
)
def test_failed_check_messages(phase, status, a, b, error, message):
    """Both paths raise through this one mapping; its words are pinned."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _fail(phase, status, a, b)
