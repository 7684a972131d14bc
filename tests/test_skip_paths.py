"""The skip paths of the ``c`` kernels give the ``numpy`` results.

Where a scan of a value-sort pass would only step past word after word,
``kernels.c`` steps over blocks of 4 such words: keys ``practice`` (of
count or bitmap nodes) and ``implicit_practice`` defer, or in
``stacked_passes`` leaves below the interval, untagged words in
``store_records``, ``store_nodes`` and the tag scan of ``retrieve_scan``,
value planes above the pivot in the right-hand scan of
``partition_values`` (with tag 0, whole words, as a sort splits keys
wider than the word) and at or below it in its left-hand one, and words off their
own slot in
``collect_fixpoints``.  The standalone kernels and the pass loops take
these paths in every pass, but for ``distinct_passes``, which turns them
on per pass.  Each loop is compiled twice: an untraced call on arrays of
byte stride 8 runs the instance with that stride fixed, and any other
call, traced or on a view of step 2 or -1, the instance for any stride,
which takes the hook.

Each skip path returns the exact first word its scan must look at.  Each
scan is fed runs of 0-9 skippable words at every offset of segments of
1-12 words, and stop words in every lane of a block after 0, 1 and 5
blocks it steps over (:func:`_stop_cases`), each loop sparse segments of
16-64 words, ``improved_passes``, ``sequential_passes`` and
``stacked_passes`` passes that settle most of their segment and defer a
few keys (:func:`_settling_cases`), ``improved_passes`` and
``practice_cursors`` dense-last
segments, whose practice runs as interleaved cursors and whose retrieval
(and, for count nodes, storage) runs by mask in C, ``practice_cursors``
in every node form a dense-last pass takes, bitmap retrieval records of
chosen bits, which C walks bit by set bit, ``stacked_passes`` segments
whose second pass steps over blocks that mix keys below its interval with
keys it defers, and
``improved_passes`` sparse segments whose narrow fields fill up, with
``unpractice`` of their nodes from every slot, through
views of step 1, 2 and -1, and must leave the same result and words as
on ``numpy``.  The words around a segment are chosen so that a block that
reads past the segment changes the result where a result can show it.
Other reads past the segment, and any past the end of the array, are out
of reach of such comparisons: ``test_sanitized_driver`` runs the same
cases, with the kernels built under AddressSanitizer and UBSan, on
exactly-sized buffers, and ``test_guarded_driver`` on buffers mapped flush
against an inaccessible page, which needs no sanitizer runtime; each
builds the kernels with and without the ISA flags of ``ckernels``.
"""

import os
import shutil
import subprocess

import numpy as np
import pytest

import assocsort
from assocsort import ckernels, kernels
from assocsort.backend import _LOOP_NAMES, active, active_loops, available, use_backend
from assocsort.counters import OpCounters

from .test_paths import DENSE_CORRUPT

pytestmark = pytest.mark.skipif(not available("c"), reason="c backend unavailable")

STEPS = (1, 2, -1)
PAD = 5  # words on each side of a segment
T8 = 1 << 7  # the tag of 8-bit words
T63 = 1 << 62
DELTA = 20
# Node forms (F, b) of 8-bit words: count nodes, bitmaps of 7 keys, and 3
# packed counters of 2 bits.
FORMS = ((1, 7), (7, 1), (3, 2))
DRIVER = os.path.join(os.path.dirname(__file__), "skip_paths_driver.c")


def _shapes():
    """``(n, start, run)``: a run of 0-9 words at every offset of a
    segment of 1-12 words."""
    for n in range(1, 13):
        for start in range(n + 1):
            for run in range(min(9, n - start) + 1):
                yield n, start, run


def _run(name, view, args):
    """Kernel or pass loop ``name`` of the active backend on ``view``; a
    ``stacked_passes`` call gets a zeroed level buffer of the view's step,
    whose levels are appended to its result."""
    if name != "stacked_passes":
        kernel = getattr(active_loops() if name in _LOOP_NAMES else active(), name)
        return tuple(int(x) for x in kernel(view, *args))
    step = view.strides[0] // 8
    levels = np.zeros(2 * len(view) * abs(step), dtype=np.int64)
    L = levels[::step][: 2 * len(view)]
    got = tuple(int(x) for x in active_loops().stacked_passes(view, L, *args))
    return got + tuple(levels.tolist())


def _agree(name, words, args):
    """Kernel or pass loop ``name`` over ``words`` on ``c`` and ``numpy``,
    through a view of every step: the same result and words each time.
    Returns the ``numpy`` result."""
    for step in STEPS:
        got = {}
        for backend in ("c", "numpy"):
            buf = np.full(len(words) * abs(step), -3, dtype=np.int64)
            view = buf[::step][: len(words)]
            view[:] = words
            with use_backend(backend):
                got[backend] = (_run(name, view, args), buf.tolist())
        assert got["c"] == got["numpy"], (name, step, words, args)
    return got["numpy"][0]


def _segment(n, start, run, skippable, other, pad):
    """``pad`` words, a segment of ``n`` words, ``pad`` words: word ``k``
    of the segment is ``skippable(k)`` inside the run, else ``other(k)``."""
    seg = [skippable(k) if start <= k < start + run else other(k) for k in range(n)]
    return [pad] * PAD + seg + [pad] * PAD


def _practice_cases():
    """Deferred keys in the run, above the segment's other deferred-looking
    words; the padding is deferred and smaller still, so a block past
    ``hi`` changes ``n_def`` and ``dnext``, and a dropped fold ``dnext``."""
    for n, start, run in _shapes():
        for base in (0, 1)[: min(n, 2)]:
            span = n - base
            far = DELTA + span

            def other(k):
                kind = (k + run) % 3
                if kind == 0 and span:
                    return DELTA + (3 * k) % span  # lands in the interval
                return T8 | k if kind == 1 else k  # a node, or below delta

            words = _segment(n, start, run, lambda k: far + 1 + (5 * k + 3 * start) % 9,
                             other, far)
            yield "practice", words, (PAD, PAD + n, DELTA, base, span, 1, 7, T8)


def _bitmap_practice_cases():
    """``practice`` of bitmap nodes of 7 keys: deferred keys in the run,
    keys of the interval elsewhere."""
    for n, start, run in _shapes():
        far = DELTA + 7 * n
        words = _segment(n, start, run, lambda k: far + 1 + (5 * k) % 9,
                         lambda k: DELTA + (5 * k) % (7 * n), far)
        yield "practice", words, (PAD, PAD + n, DELTA, 0, 7 * n, 7, 1, T8)


def _implicit_practice_cases():
    """Keys past the interval in the run, the reversed interval elsewhere;
    the padding is past the interval and below the run, so a block past
    ``hi`` changes ``dnext``."""
    for n, start, run in _shapes():
        far = DELTA + n
        words = _segment(n, start, run, lambda k: far + 1 + (5 * k + 3 * start) % 9,
                         lambda k: DELTA + n - 1 - k, far)
        yield "implicit_practice", words, (PAD, PAD + n, DELTA)


def _fixpoint_cases():
    """Words off their own slot in the run, on it or off it elsewhere."""
    for n, start, run in _shapes():
        words = _segment(n, start, run, lambda k: DELTA + k + 1 + k % 4,
                         lambda k: DELTA + k + (k + run) % 2, DELTA + n)
        yield "collect_fixpoints", words, (PAD, PAD + n, DELTA)


def _tagged(n, start, run):
    """Untagged words in the run, tagged ones elsewhere, value planes 0 or
    1, untagged padding; and how many words are tagged."""
    words = _segment(n, start, run, lambda k: (k + start) & 1,
                     lambda k: T8 | ((k + start) & 1), 0)
    return words, n - run


def _store_cases():
    for n, start, run in _shapes():
        words, tags = _tagged(n, start, run)
        for n_d in {max(tags - 1, 0), tags, tags + 1}:
            yield "store_records", words, (PAD, PAD + n, n_d, T8)


def _store_nodes_cases():
    """Untagged words in the run (idle keys of the 3-key interval, and
    deferred keys), nodes of counts 0-3 elsewhere: at a pack split of 1,
    counts 2 and 3 need a companion, which is one of the idle keys, within
    a budget of none or of every word."""
    for n, start, run in _shapes():
        words = _segment(n, start, run, lambda k: DELTA + (k % 3 if k % 2 else 50 + k),
                         lambda k: T8 | (k + start) % 4, 0)
        for budget in (0, n):
            yield "store_nodes", words, (PAD, PAD + n, DELTA, 3, 1, T8, budget)


def _retrieval_cases():
    """Records parked at the front are the value planes of the first
    ``n_d`` words, so every node is emitted once or twice."""
    for n, start, run in _shapes():
        words, tags = _tagged(n, start, run)
        for n_d in {max(tags - 1, 0), tags, tags + 1}:
            n_c = sum(words[PAD + k] & 1 for k in range(min(n_d, n)))
            if n_d + n_c > n:
                continue
            args = (PAD, PAD + n, n_d, n_c, DELTA)
            for form in FORMS:
                yield "retrieve_scan", words, args + (*form, T8)


def _bitmap_records(F, tag):
    """Records of bitmap nodes of ``F`` keys under ``tag``: a single bit
    at 0 or at the top (``F - 1`` where the word holds it), every bit,
    alternating bits, and, where the word holds bits at or above ``F``,
    those bits with one below, which a retrieval must ignore."""
    fits = min(F, tag.bit_length() - 1)
    every = (1 << fits) - 1
    records = [1, 1 << (fits - 1), every, every & 0x5555555555555555,
               every & 0xAAAAAAAAAAAAAAAA]
    above = (tag - 1) & ~((1 << F) - 1)
    if above:
        records += [above | 1, above | 1 << (F - 1)]
    return records


def _record_cases(records, count, form, tag):
    """``retrieve_scan`` of nodes of the form ``form`` holding each of
    ``records`` alone and all of them in one segment, with their nodes on
    every second word from the end; ``count(r)`` is the number of keys
    record ``r`` holds.  ``n_c`` fits the keys exactly, or falls short by
    1 or 3, so that a collision stops the walk in the middle of a node."""
    for recs in [[r] for r in records] + [records]:
        keys = sum(count(r) for r in recs)
        n_d, n = len(recs), max(keys, 2 * len(recs)) + 1
        seg = [recs[k] if k < n_d else k % 3 for k in range(n)]
        for k in range(n_d):
            seg[n - 1 - 2 * k] |= tag
        for short in (0, 1, 3):
            if keys - n_d - short >= 0:
                args = (PAD, PAD + n, n_d, keys - n_d - short, DELTA, *form, tag)
                yield "retrieve_scan", [0] * PAD + seg + [0] * PAD, args


def _bitmap_retrieval_cases():
    """``retrieve_scan`` of bitmap nodes holding the records of
    :func:`_bitmap_records` (see :func:`_record_cases`), so that a collision
    stops the walk in the middle of a node (of every bit, when the records
    stand alone)."""
    for F, tag in ((7, T8), (5, T8), (62, T63), (63, T63)):
        bits = lambda r: bin(r & ((1 << F) - 1)).count("1")
        yield from _record_cases(_bitmap_records(F, tag), bits, (F, 1), tag)


def _packed_records(F, b, tag):
    """Records of ``F`` packed counters of ``b`` bits under ``tag``: one key
    in the lowest field or in the highest, a field at its full count (the
    segment length that gives ``b``), one key in every field, and, where
    the word holds bits above the fields, those bits with one key, which a
    retrieval must ignore."""
    full = (1 << b) - 1
    top = (F - 1) * b
    every = sum(1 << (f * b) for f in range(F))
    records = [1, 1 << top, full, full << top, every]
    above = (tag - 1) & ~((1 << (F * b)) - 1)
    if above:
        records.append(above | 1 << top)
    return records


# Packed node forms (F, b) and their tags: fields of 8-bit words, fields
# that fill 62 bits, and 21 fields of 3 bits, the top one past the 62 bits
# of a record.
PACKED = ((3, 2, T8), (2, 3, T8), (4, 13, T63), (12, 5, T63), (31, 2, T63), (21, 3, T63))


def _packed_cases():
    """Packed nodes: ``retrieve_scan`` of the records of
    :func:`_packed_records` (see :func:`_record_cases`), so that a
    collision stops the walk in the middle of a node and of a field;
    ``practice`` of segments of keys at the lowest and highest field of the
    first and last slot, every word one key (a field at its full count,
    the segment length), and deferred keys in a run; and ``practice`` of 62
    bits of fields of ``seg.bit_length()`` bits, the form ``improved_passes``
    gives such a pass, from a deferred key over deferred keys to a stop word
    in each lane."""
    for F, b, tag in PACKED:
        fields = lambda r: sum(r >> (f * b) & ((1 << b) - 1) for f in range(F))
        yield from _record_cases(_packed_records(F, b, tag), fields, (F, b), tag)
    for n, start, run in _shapes():
        b = n.bit_length()
        F = 62 // b
        far = DELTA + F * n
        ends = (0, F - 1, F * (n - 1), F * n - 1)
        for other in (lambda k: DELTA + ends[k % 4], lambda k: DELTA + F - 1):
            words = _segment(n, start, run, lambda k: far + 1 + (5 * k) % 9, other, far)
            yield "practice", words, (PAD, PAD + n, DELTA, 0, F * n, F, b, T63)
    for before, lane, tail in STOP_RUNS:
        n = 4 * before + 5 + tail
        b = n.bit_length()
        F = 62 // b
        far = DELTA + F * n

        def clean(j):
            return far + 2 + (5 * j) % 9

        for stop in (DELTA + 1, far - 1, DELTA - 1, -200, -3, T63 | 1):
            for mark, at in _marks(lane, far + 1):
                seg = [far + 4] + _scan(before, lane, tail, clean, stop, mark, at)
                yield "practice", [far] * PAD + seg + [far] * PAD, (
                    PAD, PAD + n, DELTA, 0, F * n, F, b, T63)


def _outside_cases():
    """``stacked_passes`` over 160 words whose first pass, from key ``D``
    at word 0, makes one node and counts the copies of ``D``, which stay
    in the segment; the second pass, from the least key past ``D``'s
    interval, ``LO`` (the last word), practices with ``skip_outside``, as
    every pass after the first does.  Its 4-word blocks mix the copies of
    ``D``, below its interval, with keys it defers, at or past ``FAR``: the
    least deferred key in each lane and in a later block, blocks of copies
    of ``D`` alone in a pass that defers nothing (its ``dnext`` stays unset),
    keys at ``FAR`` and at ``FAR - 1``, a word tagged by a node the same
    pass made, and negative words.  The words after the blocks are keys
    it defers (or, where it must defer none, keys of its interval); the
    padding after the segment is ``FAR``, so a block that read it would
    move the next pass's start.  Each segment runs twice: told ``top``
    ``D``, so that every pass keeps count nodes over the intervals above,
    and told its largest key, so that the passes pack and step over
    blocks outside their wider intervals."""
    n, D, LO = 160, 1000, 2000
    FAR = LO + n - 1  # the second pass's segment, n - 1 words, reserves none

    def case(entry, blocks, rest=3100):
        words = [D, entry] + [w for block in blocks for w in block]
        words += [rest + k for k in range(n - 1 - len(words))] + [LO]
        assert len(words) == n
        for top in (D, max(words)):
            yield "stacked_passes", [0] * PAD + words + [FAR] * PAD, (
                PAD, PAD + n, D, top, 0, n, 63)

    for lane in range(4):
        block = [D, 3001, D, 3002]
        block[lane] = 2500
        yield from case(3000, [block, [3003, D, 3004, D]])
    yield from case(3000, [[D, 3001, D, 3002], [3003, 2500, D, 3004], [D, 3005, 3006, 3007]])
    yield from case(D, [[D] * 4, [D] * 4], rest=LO + 1)
    yield from case(D, [[D, D, D, D], [D, 3001, D, D]])
    yield from case(3000, [[D, FAR, D, FAR - 1], [FAR, D, 3001, D], [3002, FAR, FAR + 1, D]])
    yield from case(FAR, [[D, FAR, FAR, D], [FAR + 1, D, FAR, 3001]])
    # Key LO + 7 makes its node at word 8, inside the second block, and
    # brings word 8's deferred key to word 1.
    yield from case(LO + 7, [[D, 3001, D, 3002], [3003, 3004, 3005, 3006], [D, 3007, D, 3008]])
    # Negative words with the tag bit clear, which every pass passes over
    # as below its interval.
    neg = -(1 << 63) + 10**6
    yield from case(3000, [[D, neg, 3001, D], [3002, 3003, neg + 1, 3004], [D, 3005, 3006, neg]])


# (before, lane, tail): a skip path meets ``before`` blocks of 4 words it
# steps over, then a block whose first word to stop at is in lane
# ``lane``, and the segment ends ``tail`` words past that block.
STOP_RUNS = [(before, lane, tail) for before in (0, 1, 5) for lane in range(4)
             for tail in range(1, 5)]


def _scan(before, lane, tail, clean, stop, mark=None, at=0):
    """Words in the order a skip path reads them: ``clean(j)`` for each word
    ``j`` it steps over, and ``stop`` in lane ``lane`` of block ``before``;
    ``mark``, if given, replaces the word ``at`` words from the stop word."""
    k = 4 * before + lane
    words = [clean(j) for j in range(k)] + [stop]
    words += [clean(j) for j in range(k + 1, 4 * before + 4 + tail)]
    if mark is not None:
        words[k + at] = mark
    return words


def _marks(lane, word):
    """``(mark, at)`` for :func:`_scan`: none, and ``word`` just before and
    just after the stop word where its block has such a lane."""
    yield None, 0
    if lane > 0:
        yield word, -1
    if lane < 3:
        yield word, 1


def _practice_stop_cases():
    """``practice`` of count and bitmap nodes and ``implicit_practice``
    from a deferred key over deferred keys, to a key of the interval (its
    first but one or its last), one below it, a negative word with the tag
    bit clear or set, or a node; the least deferred key lies just before
    or just after the stop word in its block.  The padding is deferred and
    smaller still."""
    for before, lane, tail in STOP_RUNS:
        n = 4 * before + 5 + tail
        for form in (*FORMS, None):
            span = (form or (1,))[0] * n
            far = DELTA + span

            def clean(j):
                return far + 2 + (5 * j) % 9

            stops = [DELTA + 1, far - 1, DELTA - 1, -200]
            if form is None:
                args = ("implicit_practice", (PAD, PAD + n, DELTA))
            else:
                stops += [-3, T8 | 1]
                args = ("practice", (PAD, PAD + n, DELTA, 0, span, *form, T8))
            for stop in stops:
                for mark, at in _marks(lane, far + 1):
                    seg = [far + 4] + _scan(before, lane, tail, clean, stop, mark, at)
                    yield args[0], [far] * PAD + seg + [far] * PAD, args[1]


def _fixpoint_stop_cases():
    """``collect_fixpoints`` from a word off its slot over words off theirs
    (keys, negative words and tagged words in turn) to a word on its slot."""
    def clean(j):
        return (DELTA + j + 2, -3, T8 | 5)[j % 3]

    for before, lane, tail in STOP_RUNS:
        n = 4 * before + 5 + tail
        seg = [DELTA + 1] + _scan(before, lane, tail, clean, DELTA + 1 + 4 * before + lane)
        yield "collect_fixpoints", [DELTA + n] * PAD + seg + [DELTA + n] * PAD, (PAD, PAD + n, DELTA)


def _untagged_stop_cases():
    """The untagged-word scans, up in ``store_records`` and ``store_nodes``
    and down in ``retrieve_scan``, over untagged words (small keys and
    negative words with the tag bit clear) to a node or a negative word
    with the tag bit set.  The padding is tagged."""
    def clean(j):
        return (j % 2, DELTA + j % 3, -200)[j % 3]

    for before, lane, tail in STOP_RUNS:
        n = 4 * before + 5 + tail
        for stop in (T8 | 1, T8 | 3, -3):
            up = [0] + _scan(before, lane, tail, clean, stop)
            words = [T8 | 1] * PAD + up + [T8 | 1] * PAD
            for n_d in (1, 2):
                yield "store_records", words, (PAD, PAD + n, n_d, T8)
            for budget in (0, n):
                yield "store_nodes", words, (PAD, PAD + n, DELTA, 3, 1, T8, budget)
            down = _scan(before, lane, tail, clean, stop)[::-1]
            down = [T8 | 1] * PAD + [1] + down + [T8 | 1] * PAD
            for n_c in (0, 1):
                for form in FORMS:
                    yield "retrieve_scan", down, (PAD, PAD + n, 1, n_c, DELTA, *form, T8)


def _partition_stop_cases():
    """The right-hand scan of ``partition_values`` down from below its
    first word over value planes above the pivot (of keys, nodes and a
    negative word) to one at or below it (of a key, a node or a negative
    word), the left-hand scan stopping at once; and the left-hand scan up
    over value planes at or below the pivot to one above it, the padding at
    or below it too."""
    pivot = 50

    def clean(j):
        return (51 + j % 5, T8 | 52, -3)[j % 3]

    def low(j):
        return (30 + j % 5, T8 | 20, -T8 | 7)[j % 3]

    for before, lane, tail in STOP_RUNS:
        n = 4 * before + 4 + tail
        for stop in (51, T8 | 52, -3):
            seg = _scan(before, lane, tail, low, stop)
            yield "partition_values", [pivot] * PAD + seg + [pivot] * PAD, (
                PAD, PAD + n, pivot, T8)

    for before, lane, tail in STOP_RUNS:
        n = 4 * before + 6 + tail
        for stop in (30, T8 | pivot, -118):
            seg = [60] + _scan(before, lane, tail, clean, stop)[::-1] + [60]
            yield "partition_values", [pivot + 1] * PAD + seg + [pivot + 1] * PAD, (
                PAD, PAD + n, pivot, T8)
        # Tag 0, as a sort splits keys wider than the word at a pivot of
        # T8 - 1: whole words with the top bit set, to one at or below the
        # pivot or a negative word.
        for stop in (30, T8 - 1, -118):
            seg = [2 * T8 - 1] + _scan(before, lane, tail, _top_half, stop)[::-1] + [T8]
            yield "partition_values", [T8] * PAD + seg + [T8] * PAD, (PAD, PAD + n, T8 - 1, 0)


def _outside_stop_cases():
    """``stacked_passes`` segments of :func:`_outside_cases` whose second
    pass steps over blocks of copies of the first key and deferred keys to
    a key of its interval (its fourth or its last), a negative word, or a
    node the same pass made (from the key at word 1, whose slot is the stop
    word); the least deferred key lies just before or just after the stop
    word in its block.  Told ``top`` ``D``, every pass keeps count nodes,
    so that the intervals are those above."""
    n, D, LO = 160, 1000, 2000
    FAR = LO + n - 1
    for before, lane, _ in STOP_RUNS[::4]:
        def clean(j):
            return D if j < 4 * before and j % 4 == j // 4 % 4 else 3001 + j

        node = LO + 1 + 4 * before + lane
        for entry, stop in ((3000, LO + 3), (3000, FAR - 1), (3000, -(1 << 63) + 10**6),
                            (node, 3500)):
            for mark, at in _marks(lane, 2500):
                words = [D, entry] + _scan(before, lane, 0, clean, stop, mark, at)
                words += [3100 + k for k in range(n - 1 - len(words))] + [LO]
                yield "stacked_passes", [0] * PAD + words + [FAR] * PAD, (
                    PAD, PAD + n, D, D, 0, n, 63)


def _stop_cases():
    yield from _practice_stop_cases()
    yield from _fixpoint_stop_cases()
    yield from _untagged_stop_cases()
    yield from _partition_stop_cases()
    yield from _outside_stop_cases()


def _top_half(k):
    """An 8-bit word with its top bit set, a key of the upper part of a
    split of keys wider than the word."""
    return T8 + (37 * k) % T8


def _partition_cases():
    """Value planes above the pivot in the run, of keys and of nodes; and
    with tag 0 (pivot ``T8 - 1``), whole words with the top bit set in the
    run, keys below it elsewhere."""
    pivot = 50
    for n, start, run in _shapes():
        words = _segment(n, start, run, lambda k: (51 + k % 5) | (T8 * (k % 2)),
                         lambda k: (30 + k % 10) | (T8 * (k % 2)), pivot + 1)
        yield "partition_values", words, (PAD, PAD + n, pivot, T8)
        words = _segment(n, start, run, _top_half, lambda k: (5 * k + start) % T8, T8)
        yield "partition_values", words, (PAD, PAD + n, T8 - 1, 0)


def _pass_cases():
    """The run holds keys past the first pass's interval (of 7 keys a word
    at most, in every node form), the other words keys inside it.  From the
    segment's minimum the loop sorts it; from key 0 every key is deferred,
    so the first pass takes the skip paths and stops the loop."""
    for n, start, run in _shapes():
        for form in FORMS:
            far = DELTA + 7 * n
            seg = [far + 1 + (5 * k) % 9 if start <= k < start + run else DELTA + (3 * k) % n
                   for k in range(n)]
            words = [0] * PAD + seg + [far] * PAD
            for delta in (min(seg), 0):
                yield "improved_passes", words, (PAD, PAD + n, delta, max(seg), *form, T8)


SPARSE = (16, 17, 18, 19, 20, 23, 31, 32, 33, 40, 64)


def _sparse_pass_cases(n):
    """One key per pass interval (two for ``twice``), so each pass defers
    at least 15/16 of a segment of 16 words or more and the skip paths
    step over long runs; in three orders, so that runs end at different
    offsets.
    Count nodes of 62 bits pack every pass, of 3 bits only a pass over one
    word; no pass interval spans 62 keys a word or more."""
    for F, b in ((1, 3), (1, 62), (62, 1)):
        gap = 2 * n * (1 if b == 3 else 62)
        for order in (range(n), range(n - 1, -1, -1), [(7 * k) % n for k in range(n)]):
            for twice in (False, True)[: 1 + (F == 1)]:
                seg = [1000 + gap * (r // 2 if twice else r) for r in order]
                # Padding at the first pass's interval end: a block that
                # reads it moves the next pass's start.
                span = kernels.pass_interval(n, 1000, max(seg), F, b, T63)[2]
                words = [0] * PAD + seg + [1000 + span] * PAD
                yield "improved_passes", words, (PAD, PAD + n, 1000, max(seg), F, b, T63)


def _sparse_loop_cases(n):
    """The counting and cycle-leader loops on ``n`` keys, one key (two
    copies of one, for the counting loops) per pass interval, so that a
    pass over 16 words or more (32 for two copies) settles at most 1/16 of
    them, its skip paths step over long runs, and ``distinct_passes``,
    which takes them only after such a pass, takes them; in the orders of
    :func:`_sparse_pass_cases`.  In ``stacked_passes`` every second copy
    stays in the segment below the next interval.  The counting loops run
    keys ``2n`` apart told ``top`` 1000, so that every pass keeps count
    nodes, and keys ``124n`` apart told their largest key, which pack every
    pass, at most 61 keys a word, so that an interval still holds one key
    (or its two copies).  The padding is the
    first pass's interval end, so a block that reads it moves the next
    pass's start."""
    eps, split = kernels.pass_budget(n, 63)
    for order in (range(n), range(n - 1, -1, -1), [(7 * k) % n for k in range(n)]):
        for twice in (False, True):
            for gap in (2 * n, 124 * n):
                seg = [1000 + gap * (r // 2 if twice else r) for r in order]
                top = 1000 if gap == 2 * n else max(seg)
                span = kernels.pass_interval(n - eps, 1000, top, 1, split, T63)[2]
                words = [0] * PAD + seg + [1000 + span] * PAD
                yield "sequential_passes", words, (PAD, PAD + n, 1000, top, 63)
                yield "stacked_passes", words, (PAD, PAD + n, 1000, top, 0, n, 63)
                if not twice and gap == 2 * n:
                    yield "distinct_passes", words, (PAD, PAD + n, 1000)


# m/n of the keys of :func:`_settling_cases`, and the node forms (F, b, tag)
# of its improved_passes: count nodes of 12-bit words, which a segment of
# 32-63 words keeps, and records of 62 bits, which every pass packs.
SETTLING_RATIOS = (0.5, 1, 2, 3)
SETTLING_FORMS = ((1, 11, 1 << 11), (1, 62, T63))


def _first_interval(name, n, top, form):
    """``(base, F, span)`` of the first pass of loop ``name`` over ``n``
    words from ``DELTA``: ``improved_passes`` in the node form ``form``,
    the counting loops at w = 63."""
    if name == "improved_passes":
        fields, _, span, _ = kernels.pass_interval(n, DELTA, top, *form)
        return 0, fields, span
    eps, split = kernels.pass_budget(n, 63)
    fields, _, span, _ = kernels.pass_interval(n - eps, DELTA, top, 1, split, T63)
    return eps, fields, span


def _settling_cases(ratio):
    """Passes that settle most of their segment and defer a few keys, which
    take the skip paths as every pass does: ``improved_passes`` in each
    form of :data:`SETTLING_FORMS`, and ``sequential_passes`` and
    ``stacked_passes``, whose first pass steps over deferred keys, told
    ``top`` ``DELTA``, which keeps count nodes, and told their largest
    key, which packs.  Each segment holds 40 words.  From word 1 a run of
    keys past the first pass's interval ends at a stop word in each lane of
    a block after 0, 1 and 5 blocks, the least of them just before or just
    after it where its block has such a lane.  The stop word is a key of
    the interval whose slot lies inside the run or past the stop word, or
    the node that word 0's key makes there before practice reaches it.  The
    other words are keys drawn over ``ratio`` times the segment's length
    from ``DELTA``, the last one ``DELTA``, so that each loop sorts.  After
    practice the deferred keys are runs of untagged words that storage,
    the right-hand scan of the partition and the tag scan of retrieval step
    over.  The padding is the first pass's interval end, so a block that
    reads it moves the next pass's start."""
    n = 40
    rng = np.random.default_rng([0x5E7, int(4 * ratio)])
    # (loop, node form, whether it is told its largest key as top)
    loops = [("improved_passes", form, True) for form in SETTLING_FORMS]
    loops += [(name, None, largest) for name in ("sequential_passes", "stacked_passes")
              for largest in (False, True)]
    for before, lane, _ in STOP_RUNS[::4]:
        p = 2 + 4 * before + lane  # the stop word: skip_deferred starts at word 2
        rest = [DELTA + int(k) for k in rng.integers(0, int(ratio * n), size=n)]
        for name, form, largest in loops:
            # A largest key n or more past DELTA packs the counting loops.
            base, F, span = _first_interval(name, n, DELTA + n if largest else DELTA, form)
            far = DELTA + span

            def clean(j):
                return far + 2 + (5 * j) % 9

            def slot(j):
                """A key that practice makes a node at word ``j``."""
                return DELTA + (j - base) * F

            for first, stop in ((slot(base), slot(1)), (slot(base), slot(p + 3)),
                                (slot(p), slot(base))):
                for mark, at in _marks(lane, far + 1):
                    seg = [first, far + 4] + _scan(before, lane, 0, clean, stop, mark, at)
                    seg += rest[len(seg):n - 1] + [DELTA]
                    top = max(seg) if largest else DELTA
                    args = {"improved_passes": (top, *(form or ())),
                            "sequential_passes": (top, 63),
                            "stacked_passes": (top, 0, n, 63)}[name]
                    yield name, [far] * PAD + seg + [far] * PAD, (PAD, PAD + n, DELTA, *args)


F = kernels.DENSE_FLOOR
# A tag under which a segment of F to 2F words keeps count nodes: its
# 20-bit records hold one field of 15 or 16 bits.
COUNT_TAG = 1 << 20


def _dense_case(seg, delta, top, tag=T63):
    """``improved_passes`` of single-key nodes on ``seg`` between padding
    that holds key ``delta``, so that a cursor that strays past the
    segment changes the counts."""
    words = [delta] * PAD + [int(v) for v in seg] + [delta] * PAD
    return "improved_passes", words, (PAD, PAD + len(seg), delta, top, 1,
                                      tag.bit_length() - 1, tag)


def _past_top():
    """A dense-last pass told a ``top`` below a tenth of its keys, which lie
    past the interval (of 4 keys a word, its nodes packed): it defers them,
    and where the cursors leave them decides the moves of the partition."""
    seg = np.random.default_rng(0xD5F).integers(0, F, size=F)
    seg[np.arange(0, F, 10)] += 4 * F
    return _dense_case(seg, int(seg.min()), F - 1)


def _dense_cases():
    """Dense-last passes (see ``kernels.dense_last``), which the C loop runs
    with interleaved cursors and masked retrieval (and, for count nodes,
    masked storage): keys over the segment as the benchmark's dense sort
    draws them, in packed nodes at lengths whose 16 blocks are all full or
    not (``F + 1`` words fill 9, the last with one word) and in count
    nodes, at the least spread the gate takes for each and one key less,
    and a permutation; then corrupted ones: stray tags, keys below
    ``delta`` (in one case all of them, with strays), a ``top`` below a
    tenth of the keys, past them, below ``delta`` or at either end of
    int64, and the failing passes of ``test_paths.DENSE_CORRUPT``."""
    rng = np.random.default_rng(0xD5E)
    for n in (F, F + 1, 3 * F // 2 + 5):
        seg = rng.integers(0, n, size=n) + 7
        yield _dense_case(seg, int(seg.min()), int(seg.max()))
    seg = rng.integers(0, F, size=F) + 7
    yield _dense_case(seg, int(seg.min()), int(seg.max()), COUNT_TAG)
    # Packed nodes take the cursors from a spread of 3/4, count nodes from 5/8.
    for eighths, tag in ((6, T63), (5, COUNT_TAG)):
        for spread in (eighths * F // 8, eighths * F // 8 - 1):
            seg = rng.integers(0, spread + 1, size=F)
            seg[:2] = 0, spread
            yield _dense_case(seg, 0, spread, tag)
    yield _dense_case(rng.permutation(F), 0, F - 1)
    seg = rng.integers(0, F, size=F)
    lo, hi = int(seg.min()), int(seg.max())
    stray = seg.copy()
    stray[rng.integers(0, F, size=5)] |= T63
    yield _dense_case(stray, lo, hi)
    yield _dense_case(seg, lo + 1, hi)  # the copies of the minimum are below delta
    below = seg.copy()
    below[::100] |= T63
    yield _dense_case(below, F, F + 3 * F // 4)  # no node: storage finds only strays
    yield _past_top()
    for top in (lo + F - 1, hi + F, lo - 1, -(1 << 63), (1 << 63) - 1):
        yield _dense_case(seg, lo, top)
    for loop, (words,), args, _, _ in DENSE_CORRUPT:
        yield loop, words, args


def _cursor_cases():
    """``practice_cursors`` on the segments of :func:`_dense_cases`, in the
    node form of each pass."""
    for _, words, (lo, hi, delta, top, F, b, tag) in _dense_cases():
        fields, bits, span, _ = kernels.pass_interval(hi - lo, delta, top, F, b, tag)
        yield "practice_cursors", words, (lo, hi, delta, span, fields, bits, tag)


# Node forms of practice_cursors: count nodes at w = 16, and the packed
# forms improved_passes gives segments of 2^14, 2^15 and 2^20 words at
# w = 63.
CURSOR_FORMS = ((1, 15, 1 << 15), (4, 15, T63), (3, 20, T63), (2, 31, T63))


def _cursor_form_cases():
    """``practice_cursors`` of every node form of :data:`CURSOR_FORMS` on
    segments of 17 to 300 words whose keys lie in their interval: drawn
    from all of it, from its lower half, and distinct.  The padding holds
    key ``DELTA``, so that a cursor that strays past the segment changes
    the counts."""
    rng = np.random.default_rng(0xC0F)
    for F, b, tag in CURSOR_FORMS:
        for n in (17, 64, 300):
            span = F * n
            for keys in (rng.integers(0, span, size=n), rng.integers(0, span // 2, size=n),
                         rng.permutation(span)[:n]):
                words = [DELTA] * PAD + [DELTA + int(k) for k in keys] + [DELTA] * PAD
                yield "practice_cursors", words, (PAD, PAD + n, DELTA, span, F, b, tag)


def _narrow_segments():
    """``(seg, delta)``: sparse segments of 40, 67 and 200 distinct keys
    over 100n from 1000, whose first pass takes 28 fields of 2 bits, with
    keys planted to fill fields of that pass: once, twice (the larger key
    first), and at the least key, whose pass practices again in the wide
    form; in two orders."""
    rng = np.random.default_rng(0x9A2)
    for n in (40, 67, 200):
        keys = (1000 + rng.choice(100 * n, size=n, replace=False)).tolist()
        delta = min(keys)
        for plants in ([(delta + 9 * n // 2 + 1, 4)],
                       [(delta + 7 * n + 3, 5), (delta + 2 * n + 1, 4)],
                       [(delta, 4)]):
            seg = list(keys)
            at = n - sum(c for _, c in plants)
            for key, copies in plants:
                seg[at:at + copies] = [key] * copies
                at += copies
            for order in (seg, seg[::-1]):
                yield order, delta


def _narrow_cases():
    """``improved_passes`` of count nodes at w = 63 on the segments of
    :func:`_narrow_segments`, between padding of keys in the first
    interval, so that a block that reads past the segment moves a count;
    and ``unpractice`` of the narrow practice of each from every slot
    from 0 to 8, so that its tag scan steps over blocks ending at every
    offset."""
    for seg, delta in _narrow_segments():
        n, top = len(seg), max(seg)
        words = [delta + 1] * PAD + seg + [delta + 1] * PAD
        yield "improved_passes", words, (PAD, PAD + n, delta, top, 1, 62, T63)
        F, b, span, _ = kernels.pass_interval(n, delta, top, 1, 62, T63)
        S = np.array(words, dtype=np.int64)
        n_d, n_c, _, dnext, *_ = kernels.practice(S, PAD, PAD + n, delta, 0, span, F, b,
                                                  T63, None, 1)
        for slot in range(9):
            yield "unpractice", S.tolist(), (PAD, PAD + n, delta, 0, slot * F, F, b, T63,
                                              n_d, n_c, dnext)


def _sparse_cases():
    for n in SPARSE:
        yield from _sparse_pass_cases(n)
        yield from _sparse_loop_cases(n)


def test_practice_steps_over_deferred_keys():
    for case in _practice_cases():
        _agree(*case)


def test_bitmap_practice_steps_over_deferred_keys():
    for case in _bitmap_practice_cases():
        _agree(*case)


def test_implicit_practice_steps_over_keys_past_the_interval():
    for case in _implicit_practice_cases():
        _agree(*case)


def test_collect_fixpoints_steps_over_words_off_their_slot():
    for case in _fixpoint_cases():
        _agree(*case)


def test_store_nodes_steps_over_untagged_words():
    results = [_agree(*case) for case in _store_nodes_cases()]
    assert {r[3] for r in results} == {kernels.STATUS_OK, kernels.STATUS_OVERFULL,
                                       kernels.STATUS_NO_IDLE}
    assert any(r[3] == kernels.STATUS_OK and r[0] for r in results)  # a companion stored


def test_store_records_steps_over_untagged_words():
    for case in _store_cases():
        _agree(*case)


def test_retrieval_tag_scans_step_over_untagged_words():
    statuses = set()
    for name, words, args in _retrieval_cases():
        status = _agree(name, words, args)[1]
        *_, F, _, _ = args
        if F == 1:
            statuses.add(status)
    assert statuses == {kernels.STATUS_OK, kernels.STATUS_TAG_SCAN}


def test_bitmap_retrieval_writes_the_set_bits_below_wm1():
    statuses = {_agree(*case)[1] for case in _bitmap_retrieval_cases()}
    assert statuses == {kernels.STATUS_OK, kernels.STATUS_COLLISION}


def test_packed_nodes_practice_and_retrieve_as_numpy():
    """Packed retrieval writes each field's key its count of times, highest
    field first, and stops at a collision mid-node; packed practice counts
    fields up to the segment length and steps over deferred keys to the
    exact stop word."""
    statuses = set()
    for name, words, args in _packed_cases():
        result = _agree(name, words, args)
        if name == "retrieve_scan":
            statuses.add(result[1])
    assert statuses == {kernels.STATUS_OK, kernels.STATUS_COLLISION}


def test_stacked_practice_steps_over_keys_outside_the_interval():
    """Each segment reaches the second pass (a level per pass), and all but
    the one with negative words are sorted through the unwind."""
    for name, words, args in _outside_cases():
        result = _agree(name, words, args)
        assert result[5] >= 2, result
        if min(words) >= 0:
            assert (result[6], result[3]) == (kernels.PHASE_OK, args[1]), result


def test_partition_steps_over_value_planes_above_the_pivot():
    for case in _partition_cases():
        _agree(*case)


def test_improved_passes_on_boundary_shapes():
    phases = {_agree(*case)[4] for case in _pass_cases()}
    assert phases == {kernels.PHASE_OK, kernels.PHASE_DUPLICATE, kernels.PHASE_PREFIX}


@pytest.mark.parametrize("n", SPARSE)
def test_improved_passes_on_sparse_segments(n):
    for case in _sparse_pass_cases(n):
        result = _agree(*case)
        assert result[4] == kernels.PHASE_OK, result


@pytest.mark.parametrize("n", SPARSE)
def test_counting_and_cycle_leader_loops_on_sparse_segments(n):
    """Each loop sorts its segment (``stacked_passes`` through its
    unwind)."""
    for name, words, args in _sparse_loop_cases(n):
        result = _agree(name, words, args)
        if name == "stacked_passes":
            assert (result[6], result[3]) == (kernels.PHASE_OK, args[1]), result
        else:
            assert result[4] == kernels.PHASE_OK, (name, result)


@pytest.mark.parametrize("ratio", SETTLING_RATIOS)
def test_settling_passes_take_the_skip_paths(ratio):
    """Each loop sorts each segment (``stacked_passes`` through its
    unwind), stepping over the deferred keys of passes that settle most of
    their segment."""
    for name, words, args in _settling_cases(ratio):
        result = _agree(name, words, args)
        if name == "stacked_passes":
            assert (result[6], result[3]) == (kernels.PHASE_OK, args[1]), result
        else:
            assert result[4] == kernels.PHASE_OK, (name, result)


def test_improved_passes_on_dense_last_segments():
    """The interleaved practice and the masked retrieval give the
    ``numpy`` loop's words and results, passes that fail included."""
    phases = {_agree(*case)[4:6] for case in _dense_cases()}
    assert phases == {(kernels.PHASE_OK, 0), (kernels.PHASE_PARTITION, 0),
                      (kernels.PHASE_STORE, kernels.STATUS_TAG_SCAN),
                      (kernels.PHASE_RETRIEVE, kernels.STATUS_COLLISION)}


def test_practice_cursors_on_dense_last_segments():
    """The exported C cursors, which a traced sort calls, give the
    ``numpy`` cursors' words and results."""
    for case in _cursor_cases():
        _agree(*case)


def test_cursors_practice_every_dense_form_as_practice():
    """``practice_cursors`` in each node form a dense-last pass can take
    gives the same results and words on ``c`` and ``numpy``, through views
    of every step, and the nodes, counts and results of ``practice``: only
    the idle words may sit elsewhere."""
    for name, words, (lo, hi, delta, span, F, b, tag) in _cursor_form_cases():
        got = _agree(name, words, (lo, hi, delta, span, F, b, tag))
        cursors, plain = np.array(words), np.array(words)
        kernels.practice_cursors(cursors, lo, hi, delta, span, F, b, tag)
        want = kernels.practice(plain, lo, hi, delta, 0, span, F, b, tag)
        assert got == tuple(int(x) for x in want), (F, b, hi - lo)
        for A in (cursors, plain):
            A[~(A & tag).astype(bool)] = -1  # idle words: where they sit may differ
        assert cursors.tolist() == plain.tolist()


def test_dense_last_passes_take_the_cursors(monkeypatch):
    """Guard: the loops practice dense-last passes with cursors.  On keys
    in ``[delta, top]`` that order leaves what ``practice`` leaves; on keys
    past the interval it does not, and the ``c`` loop leaves what the
    cursors of the ``numpy`` loop leave.  The failing passes reach the
    masked retrieval, which the C loop takes for packed nodes, and for
    count nodes where a third of the keys or more repeat."""
    clean = next(_dense_cases())
    got = {}
    for name, words, args in (clean, _past_top()):
        lo, hi, delta, top, F, b, tag = args
        assert kernels.dense_last(hi - lo, delta, top,
                                  kernels.pass_interval(hi - lo, delta, top, F, b, tag)[0])
        for backend in ("c", "numpy"):
            with use_backend(backend):
                got[backend] = _run(name, np.array(words, dtype=np.int64), args)
        with monkeypatch.context() as patch, use_backend("numpy"):
            patch.setattr(kernels, "practice_cursors", lambda S, lo, hi, delta, span, F, b, tag:
                          kernels.practice(S, lo, hi, delta, 0, span, F, b, tag))
            sequential = _run(name, np.array(words, dtype=np.int64), args)
        assert got["c"] == got["numpy"]
        assert (got["numpy"] == sequential) == (args == clean[2])
    for _, (words,), (lo, hi, delta, top, F, b, tag), _, _ in DENSE_CORRUPT:
        fields, bits, span, _ = kernels.pass_interval(hi - lo, delta, top, F, b, tag)
        n_d, n_c = kernels.practice_cursors(np.array(words), lo, hi, delta, span, fields,
                                            bits, tag)[:2]
        assert fields != 1 or 2 * n_c >= n_d


def test_narrow_passes_fill_fields_as_numpy(monkeypatch):
    """The narrow passes of :func:`_narrow_cases` fill their fields, and the
    ``c`` loop and ``unpractice`` give the ``numpy`` results and words
    through views of every step: one pass undoes nodes from the first
    field's node but the least key's, which undoes every node and
    practices again."""
    spans, plain = [], kernels.unpractice
    monkeypatch.setattr(kernels, "unpractice",
                        lambda S, lo, hi, delta, base, span, *rest: spans.append(span)
                        or plain(S, lo, hi, delta, base, span, *rest))
    first = []
    for name, words, args in _narrow_cases():
        spans.clear()
        _agree(name, words, args)
        if name == "improved_passes":
            assert spans, args  # the numpy loop's runs, every step
            first.append(spans[0] == 0)
    assert any(first) and not all(first)


def test_skip_paths_stop_at_the_exact_word():
    """Each skip path returns the first word its scan must look at, in any
    lane of the block that holds it, with the words before it folded in:
    the ``c`` kernels and loops give the ``numpy`` results and words."""
    kinds = set()
    for name, words, args in _stop_cases():
        result = _agree(name, words, args)
        if name == "stacked_passes":
            assert result[5] >= 2, result  # the second pass ran
        kinds.add(name)
    assert kinds == {"practice", "implicit_practice", "collect_fixpoints",
                          "store_records", "store_nodes", "retrieve_scan",
                          "partition_values", "stacked_passes"}


def test_every_loop_has_a_sparse_case():
    """Every pass loop with skip paths meets sparse segments, here and in
    the sanitized driver: all but ``rank_passes``, which has none."""
    loops = set(_LOOP_NAMES) - {"rank_passes"}
    assert {name for name, _, _ in _sparse_cases()} == loops
    driven = {line.split()[0] for line in _driver_input()}
    assert loops <= driven


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("algo, ratio", [
    *((algo, ratio) for algo in ("assoc_improved", "distinct_improved", "assoc_seq",
                                 "assoc_rec", "cycle_distinct") for ratio in (30, 100)),
    ("distinct_improved", 3000),
])
def test_c_matches_numpy_at_scale(algo, ratio, step):
    """n = 2000 keys over ``ratio * n``: sorted words and the four
    ``OpCounters`` fields agree.  At 3000n the bitmap passes defer nearly
    every key."""
    n = 2000
    rng = np.random.default_rng([0x5C1, ratio])
    if algo in ("distinct_improved", "cycle_distinct"):
        keys = rng.choice(ratio * n, size=n, replace=False).astype(np.int64)
    else:
        keys = rng.integers(0, ratio * n, size=n, dtype=np.int64)
    got = {}
    for backend in ("c", "numpy"):
        buf = np.zeros(n * abs(step), dtype=np.int64)
        S = buf[::step][:n]
        S[:] = keys
        counters = OpCounters()
        with use_backend(backend):
            assocsort.sort(S, algo, counters=counters)
        got[backend] = (S.tolist(), (counters.passes, counters.moves,
                                     counters.node_creations, counters.max_depth))
    assert got["c"] == got["numpy"]
    assert got["c"][0] == sorted(keys.tolist())


def _driver_input():
    """The cases above, each on its segment alone (``lo`` 0, ``hi`` its
    length), and the other pass loops on the segments of
    :func:`_pass_cases` (counting width 8); a line each, as
    ``skip_paths_driver.c`` reads them: kernel, whether the loop must
    sort, the integer arguments and the words, each list after its
    length.  Then, for each pass loop, its first sorting case on which the
    Python loop calls its hook 8 times or more once again, named
    ``+<loop>``, which the driver runs with a hook that counts its calls,
    with that count appended to its arguments."""
    lines = []
    sorting = []  # (loop, words, arguments) of each line on which a loop must sort

    def line(name, sorts, seg, args):
        lines.append(" ".join(map(str, [name, int(sorts), len(args), *args, len(seg), *seg])))
        if sorts and name in _LOOP_NAMES:
            sorting.append((name, seg, args))

    cases = [*_practice_cases(), *_bitmap_practice_cases(), *_implicit_practice_cases(),
             *_fixpoint_cases(), *_store_cases(), *_store_nodes_cases(),
             *_retrieval_cases(), *_bitmap_retrieval_cases(), *_packed_cases(),
             *_partition_cases(),
             *_pass_cases(), *_outside_cases(), *_sparse_cases(),
             *_dense_cases(), *_cursor_cases(), *_cursor_form_cases(), *_stop_cases(),
             *_narrow_cases(),
             *(case for ratio in SETTLING_RATIOS for case in _settling_cases(ratio))]
    for name, words, (lo, hi, *rest) in cases:
        seg = words[lo:hi]
        line(name, name in _LOOP_NAMES and rest[0] == min(seg), seg, (0, hi - lo, *rest))
    for _, words, (lo, hi, delta, top, F, _, tag) in _pass_cases():
        if F == 1:
            seg, n = words[lo:hi], hi - lo
            sorts = delta == min(seg)
            line("distinct_passes", False, seg, (0, n, delta))
            line("sequential_passes", sorts, seg, (0, n, delta, top, 8))
            line("stacked_passes", False, seg, (0, n, delta, top, 0, n, 8))
            line("rank_passes", sorts, seg, (0, n, delta, tag))
    for seg in _rank_segments():
        line("rank_passes", True, seg, (0, len(seg), min(seg), T63))
    for name in _LOOP_NAMES:
        seg, args = next((seg, args) for loop, seg, args in sorting
                         if loop == name and _emitted(name, seg, args) >= 8)
        line("+" + name, True, seg, (*args, _emitted(name, seg, args)))
    return lines


def _rank_segments():
    """Rank sorts of ``CHAINS * 2**8 + CHAINS + 1`` words: keys over n/4
    and a permutation, whose one pass defers nothing (its last chain's
    block shorter than the others), and keys over 3n and 30n and from n/4
    values over 10n, whose passes but the last defer keys, so that their
    chains hand keys to the tail cursor."""
    rng = np.random.default_rng(0xC4A1)
    n = kernels.CHAINS * 2**8 + kernels.CHAINS + 1
    pool = rng.integers(0, 10 * n, size=n // 4)
    return [(500 + rng.integers(0, n // 4, size=n)).tolist(),
            (500 + rng.permutation(n)).tolist(),
            (500 + rng.integers(0, 3 * n, size=n)).tolist(),
            (500 + rng.integers(0, 30 * n, size=n)).tolist(),
            (500 + pool[rng.integers(0, len(pool), size=n)]).tolist()]


def test_sanitized_rank_cases_take_the_chains(monkeypatch):
    """The rank cases that the sanitized and guarded builds run sort, each
    pass reactivating through ``reactivate``: the first two in one pass that
    defers nothing, the others in passes that, but for the last, defer
    keys."""
    called, react = [], kernels.reactivate
    monkeypatch.setattr(kernels, "reactivate", lambda K, P, lo, hi, n_sorted, tag: (
        called.append(n_sorted < hi - lo) or react(K, P, lo, hi, n_sorted, tag)))
    for k, seg in enumerate(_rank_segments()):
        called.clear()
        K = np.array(seg, dtype=np.int64)
        result = kernels.rank_passes(K, np.arange(len(K)), 0, len(K), min(seg), T63)
        assert result[4] == kernels.PHASE_OK and K.tolist() == sorted(seg)
        assert len(called) == result[0]
        assert called == ([False] if k < 2 else [True] * (result[0] - 1) + [False])
        assert k < 2 or result[0] > 1


def _emitted(name, seg, args):
    """The calls the Python pass loop ``name`` makes of its hook on ``seg``,
    as ``skip_paths_driver.c`` runs it."""
    calls = []
    S = np.array(seg, dtype=np.int64)
    aux = {"stacked_passes": [np.zeros(2 * len(S), np.int64)],
           "rank_passes": [np.arange(len(S), dtype=np.int64)]}.get(name, [])
    getattr(kernels, name)(S, *aux, *args, lambda step, p: calls.append(step))
    return len(calls)


SANITIZE = ["-O2", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_sanitized_driver(tmp_path):
    """``skip_paths_driver.c`` runs the boundary shapes and sparse
    segments through every kernel with a skip path and every pass loop, on
    buffers of exactly the words they may touch, with AddressSanitizer and
    UBSan on: a block read one word past either end stops it.  It also
    checks that the stride-8 and generic instances of the loops agree."""
    env = dict(os.environ, ASAN_OPTIONS="detect_leaks=0", UBSAN_OPTIONS="print_stacktrace=1")
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    built = subprocess.run(["cc", *SANITIZE, "-o", str(tmp_path / "probe"), str(probe)],
                           capture_output=True, text=True, timeout=120)
    if built.returncode != 0 or subprocess.run([str(tmp_path / "probe")], env=env).returncode:
        pytest.skip("cc has no sanitizer runtimes")
    _drive(tmp_path, SANITIZE, env)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_guarded_driver(tmp_path):
    """``skip_paths_driver.c`` built with ``-DGUARD`` runs the same cases
    on buffers that end, and then on buffers that start, at a page it may
    not touch: a block read one word past either end stops it with
    SIGSEGV, where ``cc`` has no sanitizer runtimes too."""
    _drive(tmp_path, ["-O2", "-DGUARD"])


def _drive(tmp_path, flags, env=None):
    """Build ``skip_paths_driver.c`` with ``flags`` and run it on
    :func:`_driver_input`: it must report every case and no failure.  Both
    it and ``kernels.c`` are built with ``-include`` of a header holding
    ``ckernels.CDEF``, so that a C definition that drifts from its Python
    twin fails the build.  It is built with the library's ISA flags
    (``ckernels.ISA_FLAGS``) and, where there are any, without them too,
    so that both spellings of the skip paths' lane masks run; both must
    report the same digest of every case's results and words."""
    lines = _driver_input()
    header = tmp_path / "kernels.h"
    header.write_text(f"#include <stdint.h>\n{ckernels.CDEF}\n")
    digests = set()
    for isa in dict.fromkeys([ckernels.ISA_FLAGS, ()]):
        driver = tmp_path / f"driver{len(isa)}"
        built = subprocess.run(["cc", *flags, *isa, "-include", str(header), "-o", str(driver),
                                ckernels.SOURCE, DRIVER],
                               capture_output=True, text=True, timeout=300)
        assert built.returncode == 0, (isa, built.stderr)
        proc = subprocess.run([str(driver)], input="\n".join(lines) + "\n", env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (isa, proc.returncode, proc.stderr[-4000:])
        report, _, digest = proc.stdout.rstrip("\n").rpartition(", digest ")
        assert report == f"{len(lines)} cases, 0 failures", (isa, proc.stdout)
        digests.add(digest)
    assert len(digests) == 1, digests
