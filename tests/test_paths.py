"""The traced and untraced paths of every sorter agree.

Every sort runs all its passes in one pass-loop call (``improved_passes``,
``sequential_passes``, ``stacked_passes``, ``distinct_passes`` or
``rank_passes``; ``stacked_passes`` also unwinds the memories its passes
stacked, and is called again only to resume on a larger level buffer):
the backend's loop, which a traced sort hands a hook that gives the trace
a snapshot after each phase.  Traced and untraced sorts must leave the
same keys and payload, the same four ``OpCounters`` fields, and, when
they fail, the same exception with the same message.

Every pass loop is also fed corrupted segments directly: every backend,
with a hook and without, must stop at the same failed check with the
same numbers and words, and each driver's ``_fail`` turns that check
into the pinned message.
"""

import functools
import hashlib
import re

import numpy as np
import pytest

from assocsort import core, cycle_leader, improved, kernels, ranksort
from assocsort.adapter import ALGORITHMS
from assocsort.backend import BACKENDS, active, active_loops, available, use_backend
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
    deepest = 0
    for w, keys in _instances(sorter):
        untraced = _outcome(sorter, w, keys, None)
        assert _outcome(sorter, w, keys, quiet) == untraced, (w, len(keys))
        errors += untraced[3] is not None
        deepest = max(deepest, untraced[2][3])
    # Each distinct-key sorter met repeated keys and refused them.
    assert (errors > 0) == (sorter in DISTINCT_ONLY)
    # The recursive sort outgrew its first level buffer and resumed.
    assert (deepest > core.LEVELS) == (sorter == "assoc_rec")


class _Stop(Exception):
    """What the trace of :func:`test_a_trace_that_raises_stops_the_sort`
    raises."""


@pytest.mark.parametrize("sorter", SORTERS)
@pytest.mark.parametrize("at", [1, 3])
def test_a_trace_that_raises_stops_the_sort(backend, sorter, at):
    """A trace that raises at its ``at``-th call makes the sort raise that
    exception, and no later phase reaches the trace."""
    seen = []

    def trace(phase, passes, snapshot):
        seen.append((phase, passes))
        if len(seen) == at:
            raise _Stop(phase, passes)

    keys = np.arange(40, dtype=np.int64) * 37 % 101  # distinct, over ~2.5n
    with pytest.raises(_Stop) as exc:
        _traced_sort(sorter, keys, trace)
    assert len(seen) == at and exc.value.args == seen[-1]


def _traced_sort(sorter, keys, trace):
    """A traced sort of ``keys`` at w = 8 that lets what it raises out."""
    S, cfg = keys.copy(), WordConfig(8)
    if sorter == "sort_by_key":
        return sort_by_key(S, np.arange(len(S), dtype=np.int64), cfg=cfg, trace=trace)
    return ALGORITHMS[sorter](S, cfg=cfg, trace=trace)


@pytest.mark.skipif(not available("c"), reason="c backend unavailable")
@pytest.mark.parametrize("sorter", SORTERS)
def test_traced_sorts_run_the_compiled_loop(sorter):
    """On ``c``, a traced sort calls no kernel of ``backend.active()`` but
    the front door's ``min_max``: its phases run in the C pass loop."""
    calls = []
    with use_backend("c"):
        ns = active()
        originals = dict(vars(ns))
        try:
            for name, fn in originals.items():
                setattr(ns, name, lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
            phases = []
            _traced_sort(sorter, np.arange(40, dtype=np.int64) * 37 % 101,
                             lambda phase, passes, snapshot: phases.append(phase))
        finally:
            for name, fn in originals.items():
                setattr(ns, name, fn)
    assert phases and set(calls) == {"min_max"}


def _dense_keys(ratio):
    """Keys of a segment larger than ``kernels.DENSE_FLOOR``, over
    ``ratio`` times its length, or a permutation."""
    n = kernels.DENSE_FLOOR + 3
    rng = np.random.default_rng([0xDE5, n])
    if ratio == "permutation":
        return rng.permutation(n) + 40
    return rng.integers(0, int(ratio * n), size=n) + 40


@functools.lru_cache(maxsize=None)
def _dense_trace(name, ratio, w):
    """Digest of every ``(phase, pass, snapshot)`` of a traced
    ``assoc_improved`` sort of ``_dense_keys(ratio)`` on backend ``name``."""
    h = hashlib.sha256()

    def trace(phase, passes, snapshot):
        h.update(f"{phase} {passes}".encode())
        h.update(snapshot.tobytes())

    with use_backend(name):
        _outcome("assoc_improved", w, _dense_keys(ratio), trace)
    return h.hexdigest()


@pytest.mark.parametrize("ratio", [1 / 8, 1 / 2, 1, "permutation"])
def test_traced_and_untraced_agree_above_the_dense_floor(backend, ratio):
    """Sorts of segments larger than ``kernels.DENSE_FLOOR``, whose pass is
    dense-last, so that the loop practices it with interleaved cursors:
    keys and counters agree traced and untraced, and the traced snapshots
    are the same on every backend."""
    keys = _dense_keys(ratio)
    quiet = lambda phase, passes, snapshot: None
    for w in (32, 63):
        untraced = _outcome("assoc_improved", w, keys, None)
        assert _outcome("assoc_improved", w, keys, quiet) == untraced
        assert untraced[0] == sorted(keys.tolist()) and untraced[2][0] == 1
        assert len({_dense_trace(name, ratio, w) for name in RUNNABLE}) == 1


# A corrupted segment for each failed check, as (keys, keys of a bitmap
# node or 0 for count nodes, tag, delta, expected phase, expected status);
# see _form.  Words with the tag bit set were never made nodes by this
# pass.
CORRUPT = [
    ([22, 5, 14, 20, 3, 27, 9], 4, 16, 3, kernels.PHASE_DUPLICATE, 0),
    ([128, 50, 109, 198, 4, 225], 7, 128, 4, kernels.PHASE_STORE, kernels.STATUS_TAG_SCAN),
    ([12, 6, 7, 15, 28], 4, 16, 6, kernels.PHASE_PARTITION, 0),
    ([5, 1, 7, 2, 25], 0, 16, 1, kernels.PHASE_RETRIEVE, kernels.STATUS_COLLISION),
    # Four words, so that the pass keeps count nodes (two fields of the
    # 4-bit records would need a segment of at most 3 words).
    ([5, 26, 26, 27], 0, 16, 5, kernels.PHASE_PREFIX, 0),
    # An empty interval settles nothing: the loop stops instead of
    # starting every later pass at the same key.
    ([3, 1, 2], -1, 16, 1, kernels.PHASE_PREFIX, 0),
    ([3, 1, 2], 3, 0, 1, kernels.PHASE_PREFIX, 0),
]
RUNNABLE = [name for name in BACKENDS if available(name)]


def _loop(loops, loop):
    """Pass loop ``loop`` of the namespace ``loops``.  ``unwind_levels``
    names the unwind alone: ``stacked_passes`` entered with its sorted
    prefix at the segment's end, called as ``(S, L, hi, top, depth, w)``,
    runs no pass and retrieves the ``depth`` levels of ``L``, each in the
    node form its segment, key and ``top`` give it."""
    if loop == "unwind_levels":
        return lambda S, L, hi, top, depth, w, emit=None: loops.stacked_passes(
            S, L, hi, hi, 0, top, depth, depth, w, emit)
    return getattr(loops, loop)


def _everywhere(loop, arrays, args):
    """Pass loop ``loop`` (see :func:`_loop`) on every backend, over fresh
    copies of ``arrays``: ``{backend: (result, words of each array)}``."""
    got = {}
    for name in RUNNABLE:
        words = [np.array(a, dtype=np.int64) for a in arrays]
        with use_backend(name):
            result = _loop(active_loops(), loop)(*words, *args)
        got[name] = (tuple(int(x) for x in result), tuple(tuple(w.tolist()) for w in words))
    return got


def _form(bitmap, tag):
    """The node form ``(F, b)`` of bitmaps of ``bitmap`` keys, or where
    that is 0 of count nodes of the word's ``w - 1`` bits under ``tag``."""
    return (bitmap, 1) if bitmap else (1, tag.bit_length() - 1)


def _top(keys, tag):
    """The largest key of ``keys``, whose words with the ``tag`` bit set are
    no keys: the maximum the front door would give a pass loop."""
    return int(max((k for k in keys if not k & tag), default=max(keys)))


def _passes_everywhere(keys, form, tag, delta):
    """``improved_passes`` of nodes of the form ``(F, b)`` on every backend:
    ``{backend: (result, words)}``."""
    top = _top(keys, tag)
    got = _everywhere("improved_passes", [keys], (0, len(keys), delta, top, *form, tag))
    return {name: (result, words[0]) for name, (result, words) in got.items()}


@pytest.mark.parametrize("keys, bitmap, tag, delta, phase, status", CORRUPT)
def test_corrupt_segment_fails_alike(keys, bitmap, tag, delta, phase, status):
    got = _passes_everywhere(keys, _form(bitmap, tag), tag, delta)
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
        form = _form(int(rng.choice([0, w - 1])), tag)
        got = _passes_everywhere(S.tolist(), form, tag, int((S & (tag - 1)).min()))
        assert len(set(got.values())) == 1, (S.tolist(), form, got)
        phases.add(got["numpy"][0][4])
    assert phases == {
        kernels.PHASE_OK, kernels.PHASE_DUPLICATE, kernels.PHASE_STORE,
        kernels.PHASE_PARTITION, kernels.PHASE_RETRIEVE, kernels.PHASE_PREFIX,
    }


def test_a_pass_that_settles_nothing_stops_both_paths():
    """``improved_passes`` stops a pass that settles no word but defers a
    key, on every backend, and traced (its ``CORRUPT`` case in
    :func:`test_traced_loops_stop_where_the_loops_stop`), with the error
    of every driver's stalled prefix."""
    S = np.array([3, 1, 2], dtype=np.int64)
    message = "^sorted prefix stopped at 0 of 3$"
    # An empty interval (``tag = 0``) settles nothing in the loop.
    got = _passes_everywhere(S.tolist(), (3, 1), 0, 1)
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
        (kernels.PHASE_RETRIEVE, -3, 1, 62, CorruptStateError,
         "count retrieval failed (F=1, b=62, status -3)"),
        (kernels.PHASE_RETRIEVE, -3, 62, 1, CorruptStateError,
         "bitmap retrieval failed (F=62, b=1, status -3)"),
        (kernels.PHASE_PREFIX, 0, 3, 5, CorruptStateError, "sorted prefix stopped at 3 of 5"),
    ],
)
def test_failed_check_messages(phase, status, a, b, error, message):
    """Both paths raise through this one mapping; its words are pinned."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _fail(phase, status, a, b)


def _count_overflow():
    """A dense-last pass of ``1.25 * DENSE_FLOOR`` words whose tag is
    ``DENSE_FLOOR``: key 3 occurs ``tag + 1`` times, so its node's count
    carries into the tag bit and storage finds one node too few."""
    tag = kernels.DENSE_FLOOR
    n = tag + tag // 4
    keys = np.arange(n) * 7919 % tag
    keys[np.arange(tag + 1) * n // (tag + 1)] = 3
    return [keys.tolist()], (0, n, int(keys.min()), int(keys.max()), *_form(0, tag), tag)


def _stray_takes_a_count(tag):
    """A dense-last pass whose last slot holds a stray tagged word:
    practice bumps it for the keys of that slot, storage never reaches it,
    so the records hold too few counts and retrieval ends off the front.
    Under ``tag`` 2**20 the pass keeps count nodes (its 20-bit records hold
    one 15-bit field); under 2**40 it packs two fields a node, the last
    slot that of the keys from ``n - 2``."""
    n = kernels.DENSE_FLOOR
    keys = np.arange(n) * 7919 % n
    keys[1::2] = keys[::2]  # keys in pairs, so half of them repeat
    keys[:2] = 0, n - 1
    F = kernels.pass_interval(n, 0, n - 1, *_form(0, tag), tag)[0]
    last = (n - 1) // F
    delta, top = int(keys.min()), int(keys.max())
    keys[last] = tag | 2 * n
    return [keys.tolist()], (0, n, delta, top, *_form(0, tag), tag)


# Dense-last passes (see kernels.dense_last) that fail, with the masked
# retrieval of the C loop.  Such a pass cannot fail retrieval's tag scan:
# nothing clears a tag between a storage that found n_d of them and the
# scan.
DENSE_CORRUPT = [
    ("improved_passes", *_count_overflow(), kernels.PHASE_STORE, kernels.STATUS_TAG_SCAN),
    ("improved_passes", *_stray_takes_a_count(1 << 20), kernels.PHASE_RETRIEVE,
     kernels.STATUS_COLLISION),
    ("improved_passes", *_stray_takes_a_count(1 << 40), kernels.PHASE_RETRIEVE,
     kernels.STATUS_COLLISION),
]

# Where each loop's result holds ``(phase, status)``.
PHASE_AT = {"stacked_passes": 6, "unwind_levels": 6}
L4 = [0] * 4  # an empty buffer of two levels
# A corrupted segment for each reachable failed check of the other loops,
# as (loop, arrays, arguments after them, expected phase, expected status).
# ``distinct_passes`` cannot fail ``PHASE_PARTITION``: a word at its own
# slot moves only for a second copy of its key, which practice stops on.
# The counting loops' cases up to the dense ones take ``top`` equal to
# ``delta`` (the unwind's 0), so that every pass keeps count nodes; those
# after them pack.
LOOP_CORRUPT = [
    ("distinct_passes", [[2, 2]], (0, 2, 1), kernels.PHASE_DUPLICATE, kernels.STATUS_CURSOR),
    ("distinct_passes", [[6]], (0, 1, 5), kernels.PHASE_PREFIX, 0),
    # A tagged word that practice never made a node, and its count.
    ("sequential_passes", [[22]], (0, 1, 5, 5, 5), kernels.PHASE_STORE, 0),
    ("sequential_passes", [[25]], (0, 1, 9, 9, 5), kernels.PHASE_STORE,
     kernels.STATUS_OVERFULL),
    ("sequential_passes", [[9, 6, 1, 20, 6]], (0, 5, 0, 0, 5), kernels.PHASE_STORE,
     kernels.STATUS_NO_IDLE),
    # A word below the interval is idle but was never practiced.
    ("sequential_passes", [[2]], (0, 1, 3, 3, 8), kernels.PHASE_PARTITION, 0),
    ("sequential_passes", [[1, -1]], (0, 2, 0, 0, 4), kernels.PHASE_RETRIEVE, 0),
    # Told a maximum below its one key, the pass defers it.
    ("sequential_passes", [[6]], (0, 1, 5, 5, 6), kernels.PHASE_PREFIX, 0),
    ("stacked_passes", [[22], L4], (0, 1, 5, 5, 0, 2, 5), kernels.PHASE_STORE, 0),
    ("stacked_passes", [[25], L4], (0, 1, 9, 9, 0, 2, 5), kernels.PHASE_STORE,
     kernels.STATUS_OVERFULL),
    ("stacked_passes", [[6], L4], (0, 1, 5, 5, 0, 2, 6), kernels.PHASE_PREFIX, 0),
    # One level ``(head, delta)``, whose memory ends at ``hi``: a memory
    # past the segment, a key past the word, a companion with no node, a
    # count that overruns the memory, and an overfull node's pair that
    # writes one key for its two words.
    ("unwind_levels", [[4], [2, 6]], (1, 0, 1, 5), kernels.PHASE_UNWIND,
     kernels.STATUS_BAD_SLOT),
    ("unwind_levels", [[5], [0, 16]], (1, 0, 1, 5), kernels.PHASE_UNWIND,
     kernels.STATUS_BAD_SLOT),
    ("unwind_levels", [[0], [0, 5]], (1, 0, 1, 5), kernels.PHASE_UNWIND,
     kernels.STATUS_NO_IDLE),
    ("unwind_levels", [[21], [0, 1]], (1, 0, 1, 5), kernels.PHASE_UNWIND,
     kernels.STATUS_COLLISION),
    ("unwind_levels", [[16, 0], [0, 8]], (2, 0, 1, 5), kernels.PHASE_UNWIND, 0),
    ("rank_passes", [[22], [0]], (0, 1, 5, 16), kernels.PHASE_ACCUMULATE, 0),
    ("rank_passes", [[6, 7, 4, 5, 7, 1, 2, 7, 2], list(range(9))], (0, 9, 1, 8),
     kernels.PHASE_TICKET, kernels.STATUS_BAD_HASH),
    ("rank_passes", [[1, 0], [0, 1]], (0, 2, 1, 32), kernels.PHASE_REACTIVATE,
     kernels.STATUS_BAD_SLOT),
    ("rank_passes", [[0, 2, 4], [0, 1, 2]], (0, 3, 1, 32), kernels.PHASE_REACTIVATE,
     kernels.STATUS_CURSOR),
    ("rank_passes", [[2, 0], [0, 1]], (0, 2, 1, 16), kernels.PHASE_RESTORE,
     kernels.STATUS_BAD_PREFIX),
    ("rank_passes", [[6], [0]], (0, 1, 5, 32), kernels.PHASE_PREFIX, 0),
    *DENSE_CORRUPT[:2],
    # A level whose segment is wider than the word has no pass budget.
    ("unwind_levels", [[0] * 17, [0, 5]], (17, 0, 1, 5), kernels.PHASE_UNWIND,
     kernels.STATUS_BAD_SLOT),
    # Packed passes: a tagged word that practice never made a node; a
    # stacked pass whose segment holds a key past the word's keys, which
    # no level can hold; a packed level of one word (6 one-bit fields)
    # whose fields hold two keys.
    ("sequential_passes", [[22]], (0, 1, 5, 22, 5), kernels.PHASE_STORE, 0),
    ("stacked_passes", [[22], L4], (0, 1, 5, 22, 0, 2, 5), kernels.PHASE_STORE, 0),
    ("unwind_levels", [[128 | 3], [0, 0]], (1, 5, 1, 8), kernels.PHASE_UNWIND,
     kernels.STATUS_COLLISION),
    # The dense-last pass of packed nodes, after the cases above.
    DENSE_CORRUPT[2],
]


@pytest.mark.parametrize("loop, arrays, args, phase, status", LOOP_CORRUPT)
def test_corrupt_segment_stops_every_loop_alike(loop, arrays, args, phase, status):
    got = _everywhere(loop, arrays, args)
    assert len(set(got.values())) == 1, got
    at = PHASE_AT.get(loop, 4)
    assert got["numpy"][0][at : at + 2] == (phase, status)


def test_every_loop_failure_has_a_case():
    reached = {(loop, phase) for loop, _, _, phase, _ in LOOP_CORRUPT}
    assert reached == {
        ("distinct_passes", kernels.PHASE_DUPLICATE),
        ("distinct_passes", kernels.PHASE_PREFIX),
        *((loop, phase) for loop in ("sequential_passes",) for phase in (
            kernels.PHASE_STORE, kernels.PHASE_PARTITION, kernels.PHASE_RETRIEVE,
            kernels.PHASE_PREFIX)),
        ("stacked_passes", kernels.PHASE_STORE),
        ("stacked_passes", kernels.PHASE_PREFIX),
        ("unwind_levels", kernels.PHASE_UNWIND),
        *(("rank_passes", phase) for phase in (
            kernels.PHASE_ACCUMULATE, kernels.PHASE_TICKET, kernels.PHASE_REACTIVATE,
            kernels.PHASE_RESTORE, kernels.PHASE_PREFIX)),
        ("improved_passes", kernels.PHASE_STORE),
        ("improved_passes", kernels.PHASE_RETRIEVE),
    }
    for _, (words,), (head, hi, delta, top, F, b, tag), _, _ in DENSE_CORRUPT:
        fields = kernels.pass_interval(hi - head, delta, top, F, b, tag)[0]
        assert kernels.dense_last(hi - head, delta, top, fields)


# The phases each pass loop hands the hook, in order.
PHASES = {
    "improved_passes": ("practice", "store", "partition", "retrieve"),
    "sequential_passes": ("practice", "partition", "retrieve"),
    "stacked_passes": ("practice",),
    "distinct_passes": ("practice", "partition"),
    "rank_passes": ("practice", "accumulate", "repractice", "reactivate", "restore"),
}
# The phase whose check each failure is; storage is a part of "practice"
# in the loops that have no "store".
CHECKED_IN = {
    kernels.PHASE_DUPLICATE: "practice",
    kernels.PHASE_STORE: "store",
    kernels.PHASE_PARTITION: "partition",
    kernels.PHASE_RETRIEVE: "retrieve",
    kernels.PHASE_ACCUMULATE: "accumulate",
    kernels.PHASE_TICKET: "repractice",
    kernels.PHASE_REACTIVATE: "reactivate",
    kernels.PHASE_RESTORE: "restore",
}


def _hook_calls(loop, args, result):
    """The ``(phase, pass)`` calls a traced ``loop`` makes before it
    returns ``result``: every phase of each pass it ran, but none from the
    failed check on."""
    if loop == "unwind_levels":
        # Each case unwinds one level, which a failed status stops.
        assert args[2] == 1
        return [] if result[7] else [("retrieve", 1)]
    names = PHASES[loop]
    at = PHASE_AT.get(loop, 4)
    calls = [(name, p) for p in range(1, result[0] + 1) for name in names]
    if result[at] in CHECKED_IN:
        failed = CHECKED_IN[result[at]]
        calls = calls[: len(calls) - len(names) + names.index(
            failed if failed in names else "practice")]
    return calls


TRACED_CASES = [
    ("improved_passes", [keys], (0, len(keys), delta, _top(keys, tag), *_form(bitmap, tag),
                                 tag), phase, status)
    for keys, bitmap, tag, delta, phase, status in CORRUPT
] + LOOP_CORRUPT


@pytest.mark.parametrize("loop, arrays, args, phase, status", TRACED_CASES)
def test_traced_loops_stop_where_the_loops_stop(backend, loop, arrays, args, phase, status):
    """Each backend's loop, handed a recording hook, returns the tuple and
    leaves the words it does without one, and hands the hook no phase from
    the failed check on."""
    untraced = [np.array(a, dtype=np.int64) for a in arrays]
    expect = tuple(int(x) for x in _loop(active_loops(), loop)(*untraced, *args))
    traced = [np.array(a, dtype=np.int64) for a in arrays]
    calls = []
    hook = lambda step, p: calls.append((kernels.STEPS[step], int(p)))
    got = tuple(int(x) for x in _loop(active_loops(), loop)(*traced, *args, hook))
    assert got == expect
    assert [w.tolist() for w in traced] == [w.tolist() for w in untraced]
    at = PHASE_AT.get(loop, 4)
    assert got[at : at + 2] == (phase, status)
    assert calls == _hook_calls(loop, args, got)


def _random_case(rng, loop):
    """A random small segment for ``loop``, some words tagged, and the
    arguments after its arrays."""
    w = int(rng.choice([5, 8]))
    tag = 1 << (w - 1)
    n = int(rng.integers(1, 9))
    S = rng.integers(0, tag, size=n)
    S[rng.random(n) < 0.3] |= tag
    delta = int((S & (tag - 1)).min()) + int(rng.integers(-1, 2))
    if loop == "distinct_passes":
        return [S], (0, n, delta)
    # The keys' maximum, or one that keeps every pass's count nodes.
    top = (int((S & (tag - 1)).max()), delta)[int(rng.integers(2))]
    if loop == "sequential_passes":
        return [S], (0, n, delta, top, w)
    if loop == "stacked_passes":
        return [S, [0] * 4], (0, n, delta, top, 0, 2, w)
    if loop == "unwind_levels":
        S &= tag | 3  # small records, so that some overfull pairs count 0
        depth = int(rng.integers(1, 3))
        levels = [[int(rng.integers(0, n + 1)), int(rng.integers(0, tag + 1))]
                  for _ in range(depth)]
        return [S, sum(levels, [])], (n, top, depth, w)
    return [S, np.arange(n)], (0, n, delta, tag)


K = kernels


@pytest.mark.parametrize("loop, reach", [
    ("distinct_passes", {(K.PHASE_OK, 0), (K.PHASE_DUPLICATE, K.STATUS_CURSOR),
                         (K.PHASE_PREFIX, 0)}),
    ("sequential_passes", {(K.PHASE_OK, 0), (K.PHASE_STORE, 0),
                           (K.PHASE_STORE, K.STATUS_OVERFULL),
                           (K.PHASE_STORE, K.STATUS_NO_IDLE),
                           (K.PHASE_PARTITION, 0), (K.PHASE_PREFIX, 0)}),
    ("stacked_passes", {(K.PHASE_OK, 0), (K.PHASE_STORE, 0),
                        (K.PHASE_STORE, K.STATUS_OVERFULL),
                        (K.PHASE_STORE, K.STATUS_NO_IDLE), (K.PHASE_PREFIX, 0),
                        (K.PHASE_UNWIND, 0), (K.PHASE_UNWIND, K.STATUS_BAD_SLOT)}),
    ("unwind_levels", {(K.PHASE_OK, 0), (K.PHASE_UNWIND, 0),
                       (K.PHASE_UNWIND, K.STATUS_NO_IDLE),
                       (K.PHASE_UNWIND, K.STATUS_COLLISION),
                       (K.PHASE_UNWIND, K.STATUS_BAD_SLOT)}),
    ("rank_passes", {(K.PHASE_OK, 0), (K.PHASE_ACCUMULATE, 0), (K.PHASE_PREFIX, 0)}),
])
def test_random_segments_agree_on_every_loop(rng, loop, reach):
    """300 random small segments per loop, some words tagged: every
    backend stops at the same check with the same numbers and words."""
    at = PHASE_AT.get(loop, 4)
    reached = set()
    for _ in range(300):
        arrays, args = _random_case(rng, loop)
        got = _everywhere(loop, arrays, args)
        assert len(set(got.values())) == 1, (arrays, args, got)
        reached.add(got["numpy"][0][at : at + 2])
    assert reached == reach


def test_stacked_passes_resume_where_they_stopped():
    """A level buffer grown one level at a time gives the same words,
    levels and counters as one large enough from the start, on every
    backend."""
    keys = [8, 6, 2, 40, 33, 6, 17, 2, 25, 9, 51, 8]
    whole = _everywhere("stacked_passes", [keys, [0] * 32], (0, 12, 2, 51, 0, 16, 8))
    assert len(set(whole.values())) == 1, whole
    result, (words, levels) = whole["numpy"]
    depth = result[5]
    assert result[3] == 12 and result[6] == kernels.PHASE_OK and depth > 2
    assert list(words) == sorted(keys)
    for name in RUNNABLE:
        S = np.array(keys, dtype=np.int64)
        L = np.zeros(2, dtype=np.int64)
        head, delta, depth, totals = 0, 2, 0, [0, 0, 0]
        with use_backend(name):
            while head < 12:
                if 2 * depth == len(L):
                    L = np.concatenate([L, np.zeros(2, dtype=np.int64)])
                r = active_loops().stacked_passes(S, L, head, 12, delta, 51, depth,
                                                  len(L) // 2, 8)
                assert r[6] == kernels.PHASE_OK
                totals = [t + int(x) for t, x in zip(totals, r[:3])]
                head, delta, depth = int(r[3]), int(r[4]), int(r[5])
        assert (tuple(totals), depth) == (result[:3], result[5])
        assert tuple(S.tolist()) == words
        assert tuple(L.tolist()) == levels[: len(L)]


@pytest.mark.parametrize("levels, level", [([9, 0, 1, 0], 1), ([0, 0, 9, 0], 2)])
def test_unwind_names_the_level_it_refuses(levels, level):
    """A level whose memory lies past the segment stops the unwind with its
    number from 1 in ``a``, on every backend (in the first case after the
    newer level's retrieval ran), and its error says that level's retrieval
    did not run."""
    got = _everywhere("unwind_levels", [[4, 16], levels], (2, 0, 2, 5))
    assert len(set(got.values())) == 1, got
    result = got["numpy"][0]
    assert result[6:9] == (kernels.PHASE_UNWIND, kernels.STATUS_BAD_SLOT, level)
    message = f"^unwind level {level} is out of bounds \\(status -8\\); its retrieval did not run$"
    with pytest.raises(CorruptStateError, match=message):
        core._fail(*result[6:])


@pytest.mark.parametrize(
    "fail, phase, status, numbers, error, message",
    [
        (core._fail, kernels.PHASE_STORE, -1, (3, 2, 1, 0), CorruptStateError,
         "storage kept 3 memory words for 2 nodes and 1 companions of budget 0 (status -1)"),
        (core._fail, kernels.PHASE_PARTITION, 0, (2, 1), CorruptStateError,
         "2 idle words after storage, expected 1"),
        (core._fail, kernels.PHASE_RETRIEVE, -3, (0, 4), CorruptStateError,
         "retrieval wrote 0 of 4 keys (status -3)"),
        (core._fail, kernels.PHASE_UNWIND, -8, (2,), CorruptStateError,
         "unwind level 2 is out of bounds (status -8); its retrieval did not run"),
        (core._fail, kernels.PHASE_UNWIND, 0, (2,), CorruptStateError,
         "unwind left 2 words unwritten at the front"),
        (core._fail, kernels.PHASE_PREFIX, 0, (3, 5), CorruptStateError,
         "sorted prefix stopped at 3 of 5"),
        (cycle_leader._fail, kernels.PHASE_DUPLICATE, -7, (0, 0), DuplicateKeyError,
         "duplicate key detected while practicing"),
        (cycle_leader._fail, kernels.PHASE_PARTITION, 0, (2, 3), CorruptStateError,
         "settled 2 keys but practicing reported 3"),
        (cycle_leader._fail, kernels.PHASE_PREFIX, 0, (0, 1), CorruptStateError,
         "sorted prefix stopped at 0 of 1"),
        (ranksort._fail, kernels.PHASE_ACCUMULATE, 0, (2, 5, 1, 4), CorruptStateError,
         "accumulation saw 2 nodes/5 elements, practice reported 1/4"),
        (ranksort._fail, kernels.PHASE_TICKET, -5, (1, 3), CorruptStateError,
         "ticketing failed (status -5, 1 of 3)"),
        (ranksort._fail, kernels.PHASE_REACTIVATE, -8, (), CorruptStateError,
         "reactivation failed (status -8)"),
        (ranksort._fail, kernels.PHASE_RESTORE, -6, (), CorruptStateError,
         "key restoration failed (status -6)"),
        (ranksort._fail, kernels.PHASE_PREFIX, 0, (4, 9), CorruptStateError,
         "sorted prefix stopped at 4 of 9"),
        (core._fail, kernels.PHASE_UNWIND, -3, (0,), CorruptStateError,
         "unwind retrieval failed (status -3)"),
        (improved._fail, kernels.PHASE_RETRIEVE, -3, (4, 13), CorruptStateError,
         "packed 4x13 retrieval failed (F=4, b=13, status -3)"),
    ],
)
def test_driver_failure_messages(fail, phase, status, numbers, error, message):
    """Each driver's two paths raise through its ``_fail``; its words are
    pinned."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        fail(phase, status, *numbers)
