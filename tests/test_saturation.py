"""Narrow fields that fill up: ``assoc_improved``'s sparse passes.

A pass of ``assoc_improved`` whose wide form (fields of the segment's bit
length) leaves keys out takes narrow fields (``kernels.pass_interval``):
28 fields of 2 bits at w = 63, which count a key at most 3 times.  A key
that finds its field full is deferred, the interval ends before its node,
``unpractice`` turns the nodes from there up back into keys, and every
later pass takes one bit more; where that node is the pass's first, the
pass practices again in the wide form.  These tests plant repeated keys
where they fill fields and check, on both backends and through views of
step 1, 2 and -1, that the sort is exact, that both backends leave the
same words and counters, and that the passes are the oracle's.
"""

import numpy as np
import pytest

from assocsort import kernels
from assocsort.backend import BACKENDS, active, available, use_backend
from assocsort.counters import OpCounters
from assocsort.improved import sort_improved
from assocsort.words import WordConfig

from .conftest import arr
from .oracles import improved_pass_count

T63 = 1 << 62
STEPS = (1, 2, -1)
N = 1000


def _sparse(seed, n=N, ratio=100):
    """``n`` distinct keys over ``ratio * n`` from 0: no key fills a field
    of 2 bits, but the planted ones."""
    return np.random.default_rng([0x5A7, seed]).choice(ratio * n, size=n, replace=False)


def _plant(keys, plants, first=False):
    """``keys`` with each ``(key, copies)`` of ``plants`` written over
    ``copies`` of its words, the planted copies at the end, or at the
    start where ``first`` is set."""
    keys = keys.copy()
    at = 0 if first else len(keys) - sum(c for _, c in plants)
    for key, copies in plants:
        keys[at:at + copies] = key
        at += copies
    return keys


def _everywhere(keys, w=63):
    """``keys`` sorted by ``assoc_improved`` on every backend that runs
    here, through views of every step: ``{(backend, step): (words,
    counters)}``, each checked against ``np.sort``."""
    got = {}
    for backend in BACKENDS:
        if not available(backend):
            continue
        for step in STEPS:
            buf = np.zeros(len(keys) * abs(step), dtype=np.int64)
            S = buf[::step][: len(keys)]
            S[:] = keys
            c = OpCounters()
            with use_backend(backend):
                sort_improved(S, WordConfig(w), c)
            assert np.array_equal(S, np.sort(keys)), (backend, step)
            got[backend, step] = (S.tolist(), (c.passes, c.moves, c.node_creations))
    assert len({counters for _, counters in got.values()}) == 1, got.keys()
    return next(iter(got.values()))[1]


@pytest.fixture
def unpracticed(monkeypatch):
    """The ``span`` of every ``unpractice`` call the ``numpy`` loop makes."""
    spans = []
    plain = kernels.unpractice

    def spy(S, lo, hi, delta, base, span, *rest):
        spans.append(span)
        return plain(S, lo, hi, delta, base, span, *rest)

    monkeypatch.setattr(kernels, "unpractice", spy)
    return spans


def _first_spans(keys, spans):
    """The ``unpractice`` spans of a ``numpy`` sort of ``keys``."""
    spans.clear()
    with use_backend("numpy"):
        sort_improved(keys.copy())
    return list(spans)


def test_sparse_passes_take_two_bit_fields():
    """5000 keys over 100n: 28 fields of 2 bits a word, an interval of 28
    keys a segment word, where the wide form has 4 of 13 bits."""
    assert kernels.pass_interval(5000, 0, 500_000, 1, 62, T63) == (28, 2, 140_000, 139_999)
    assert kernels.pass_interval(5000, 0, 500_000, 1, 62, T63, kernels.WIDE)[:2] == (4, 13)


@pytest.mark.parametrize("copies", [4, 5, 9])
def test_a_key_that_fills_its_field(copies, unpracticed):
    """A key planted ``2**2`` times or more inside the first interval fills
    its field: the pass ends before its node, and the next takes 3 bits,
    which count it."""
    keys = _sparse(copies)
    delta = int(keys.min())
    key = delta + 10_001
    keys = _plant(keys, [(key, copies)])
    assert _first_spans(keys, unpracticed)[:1] == [(key - delta) // 28 * 28]
    passes = _everywhere(keys)[0]
    assert passes == improved_pass_count(keys, 63)


def test_two_keys_fill_their_fields_in_one_pass(unpracticed):
    """Two keys fill their fields in one pass, the larger first: the
    interval ends before the node of the smaller."""
    keys = _sparse(2)
    delta = int(keys.min())
    low, high = delta + 3001, delta + 9001
    keys = _plant(keys, [(high, 4), (low, 4)])
    assert _first_spans(keys, unpracticed)[:1] == [(low - delta) // 28 * 28]
    assert _everywhere(keys)[0] == improved_pass_count(keys, 63)


def test_the_least_key_fills_its_field(unpracticed):
    """The segment's least key fills its field: the first node, so the pass
    undoes every node and practices the segment again in the wide form,
    which settles 4 keys a segment word from the least."""
    keys = _sparse(3)
    least = int(keys.min())
    keys = _plant(keys, [(least, 4)], first=True)
    assert _first_spans(keys, unpracticed)[:1] == [0]
    assert _everywhere(keys)[0] == improved_pass_count(keys, 63)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("at", [1, 2, 3, 4])
def test_a_raising_trace_stops_a_saturated_pass(at):
    """A trace that raises at phase ``at`` of a pass whose fields filled up
    stops the sort there, with the same words on every backend and
    step."""
    keys = _plant(_sparse(4, n=60), [(500, 4)])
    keys[0] = 0  # the first interval, 28 * 60 keys from 0, holds key 500
    left = set()
    for backend in BACKENDS:
        if not available(backend):
            continue
        for step in STEPS:
            seen = []

            def trace(phase, passes, snapshot):
                seen.append(phase)
                if len(seen) == at:
                    raise _Stop

            buf = np.zeros(len(keys) * abs(step), dtype=np.int64)
            S = buf[::step][: len(keys)]
            S[:] = keys
            with use_backend(backend), pytest.raises(_Stop):
                sort_improved(S, trace=trace)
            assert seen == list(kernels.STEPS[:at])
            left.add(tuple(S.tolist()))
    assert len(left) == 1


def test_practice_defers_keys_that_find_their_field_full(backend):
    """Hand-traced at w = 63, 28 fields of 2 bits from key 0: key 60 fills
    field 4 of slot 2 at its 4th copy, which is deferred and ends the
    interval at key 56; key 30 then fills field 2 of slot 1, ending it at
    28.  Each node records the field that made it above its 56 bits of
    fields.  ``unpractice`` from key 28 turns slots 1 and 2 back into keys
    30 and 60, one move each, and takes their other keys back from the
    practice's results."""
    k = active()
    S = arr(0, 60, 60, 60, 60, 30, 30, 30, 30, 5, 100, 7, 7, 57, 90, 3)
    n_d, n_c, n_def, dnext, moves, created, full = k.practice(
        S, 0, 16, 0, 0, 28 * 16, 28, 2, T63, None, 1)
    assert (n_d, n_c, n_def, dnext, moves, created, full) == (3, 8, 5, 30, 3, 3, 30)
    assert S[:3].tolist() == [T63 | 2 << 14 | 1 << 10 | 1 << 6 | 1,
                              T63 | 2 << 56 | 3 << 4, T63 | 4 << 56 | 3 << 8]
    assert k.unpractice(S, 0, 16, 0, 0, 28, 28, 2, T63, n_d, n_c, dnext) == (1, 4, 30, 2)
    assert S.tolist()[:3] == [T63 | 2 << 14 | 1 << 10 | 1 << 6 | 1, 30, 60]
    assert sorted(S.tolist()[1:]) == sorted([60] * 4 + [30] * 4 + [5, 100, 7, 7, 57, 90, 3])


def test_unpractice_of_every_node(backend):
    """``unpractice`` from slot 0 turns every node back into its key: the
    words are the practiced keys again, as a multiset, and no node or
    companion is left."""
    k = active()
    keys = arr(9, 2, 9, 40, 2, 33, 9, 70, 2)
    S = keys.copy()
    n_d, n_c, _, dnext, *_ = k.practice(S, 0, 9, 2, 0, 19 * 9, 19, 3, T63, None, 1)
    assert (n_d, n_c, dnext) == (4, 5, -1)
    assert k.unpractice(S, 0, 9, 2, 0, 0, 19, 3, T63, n_d, n_c, dnext) == (0, 0, 2, 4)
    assert sorted(S.tolist()) == sorted(keys.tolist())


FUZZ_RATIOS = (10, 30, 100, 1000)


def _fuzz_keys(kind, n, m, rng):
    if kind == "uniform":
        return rng.integers(0, m, size=n)
    if kind == "exponential":
        return np.clip(np.floor(rng.exponential(m / 8, size=n)), 0, m - 1).astype(np.int64)
    pool = rng.integers(0, m, size=max(1, n // 4))  # dup: n/4 values
    return pool[rng.integers(0, len(pool), size=n)]


@pytest.mark.parametrize("w", [8, 32, 63])
@pytest.mark.parametrize("kind", ["uniform", "exponential", "dup"])
def test_fuzz_sparse_sorts(w, kind):
    """``assoc_improved`` over uniform, exponential and ``dup`` keys (n/4
    values) at m/n 10-1000: exact on both backends and every step, the
    same words and counters, and the oracle's passes."""
    rng = np.random.default_rng([0xF22, w, len(kind)])
    tag = 1 << (w - 1)
    for ratio in FUZZ_RATIOS:
        for _ in range(3):
            n = int(rng.integers(2, 400))
            n = max(1, min(n, tag // ratio))
            keys = _fuzz_keys(kind, n, min(ratio * n, tag), rng)
            assert _everywhere(keys, w)[0] == improved_pass_count(keys, w), (ratio, n)
