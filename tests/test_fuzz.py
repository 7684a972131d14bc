"""Differential fuzz: the ``c`` backend against the plain ``numpy`` one.

Every registry sorter, ``sort_by_key`` and ``argsort_keys`` run on the
same input under both backends, at word widths 4..63, and must leave the
same keys and payload, the same four ``OpCounters`` fields, and, when
they refuse or fail, the same exception with the same message.  The
strategies lean on the edges of the word model: a segment of exactly
``2**(w-1)`` words at small ``w``, keys at ``max_key``, duplicate-heavy
runs at ``w`` = 4..6 where companions are live, the bitmap sorter at
``w`` = 63 (63-bit words, 62 keys per node), and strided keys and
payloads.  Keys over the whole ``int64`` range, which sorts shift or
split, must also sort as numpy sorts them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import assocsort
from assocsort.adapter import ALGORITHMS
from assocsort.backend import available, use_backend
from assocsort.counters import OpCounters
from assocsort.ranksort import argsort_keys, sort_by_key
from assocsort.words import WordConfig

pytestmark = pytest.mark.skipif(not available("c"), reason="c backend unavailable")

SORTERS = sorted(ALGORITHMS) + ["sort_by_key"]
DISTINCT_ONLY = {"cycle_distinct", "distinct_improved"}
INT64 = st.integers(-(2**63), 2**63 - 1)
FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _view(values, stride):
    """``values`` as a writable int64 view with the given element stride."""
    values = np.asarray(values, dtype=np.int64)
    buf = np.full(max(1, len(values) * abs(stride)), -7, dtype=np.int64)
    view = buf[::stride][: len(values)]
    view[:] = values
    return buf, view


def _outcome(run, keys, payload, stride):
    """Run ``run(K, P, counters)`` on fresh views; returns everything
    observable, what ``run`` returns included."""
    kbuf, K = _view(keys, stride)
    pbuf, P = _view(payload, stride) if payload is not None else (None, None)
    counters = OpCounters()
    returned = None
    try:
        returned = run(K, P, counters)
        error = None
    except Exception as exc:  # the refusal itself is compared
        error = (type(exc).__name__, str(exc))
    return (
        kbuf.tolist(),
        None if pbuf is None else pbuf.tolist(),
        (counters.passes, counters.moves, counters.node_creations, counters.max_depth),
        error,
        returned,
    )


def _assert_same(run, keys, payload=None, stride=1):
    """Both backends' outcome of ``run``, which must be the same; returns it."""
    results = {}
    for name in ("numpy", "c"):
        with use_backend(name):
            results[name] = _outcome(run, keys, payload, stride)
    assert results["c"] == results["numpy"]
    return results["c"]


def _sorter_run(sorter, cfg):
    if sorter == "sort_by_key":
        return lambda K, P, c: sort_by_key(K, P, cfg=cfg, counters=c)
    return lambda K, P, c: ALGORITHMS[sorter](K, cfg=cfg, counters=c)


@st.composite
def instances(draw, widths=st.integers(4, 63), max_n=48):
    """``(sorter, w, keys, payload, stride)`` with keys inside the word model."""
    sorter = draw(st.sampled_from(SORTERS))
    w = draw(widths)
    cfg = WordConfig(w)
    n = draw(st.integers(0, min(max_n, cfg.tag_mask)))
    shape = draw(st.sampled_from(["spread", "dups", "top"]))
    if shape == "top":  # crowd the largest key
        lo, hi = max(0, cfg.max_key - draw(st.integers(0, 3 * n))), cfg.max_key
    else:
        lo = draw(st.integers(0, cfg.max_key))
        width = max(1, n // 4) if shape == "dups" else draw(st.integers(1, 100 * n + 1))
        hi = min(cfg.max_key, lo + width - 1)
    unique = sorter in DISTINCT_ONLY and draw(st.booleans())
    if unique:  # room for n distinct keys, twice over where the model allows
        hi = min(cfg.max_key, max(hi, lo + 2 * n - 1))
        lo = max(0, min(lo, hi - 2 * n + 1))
    keys = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n, unique=unique))
    payload = draw(st.lists(INT64, min_size=n, max_size=n)) if sorter == "sort_by_key" else None
    stride = draw(st.sampled_from([1, 1, 2, 3, -1]))
    return sorter, w, keys, payload, stride


@FUZZ
@given(instances())
def test_every_sorter_any_width(case):
    sorter, w, keys, payload, stride = case
    _assert_same(_sorter_run(sorter, WordConfig(w)), keys, payload, stride)


@FUZZ
@given(instances(widths=st.integers(4, 6), max_n=64))
def test_duplicate_heavy_small_words(case):
    sorter, w, keys, payload, stride = case
    _assert_same(_sorter_run(sorter, WordConfig(w)), keys, payload, stride)


@FUZZ
@given(st.data())
def test_full_slot_count(data):
    """``n = 2**(w-1)``: every word of the model's address space in use."""
    w = data.draw(st.integers(4, 8))
    cfg = WordConfig(w)
    n = cfg.tag_mask
    sorter = data.draw(st.sampled_from(SORTERS))
    if sorter in DISTINCT_ONLY:
        keys = data.draw(st.permutations(range(n)))
    else:
        keys = data.draw(st.lists(st.integers(0, cfg.max_key), min_size=n, max_size=n))
    payload = data.draw(st.lists(INT64, min_size=n, max_size=n))
    if sorter != "sort_by_key":
        payload = None
    _assert_same(_sorter_run(sorter, cfg), keys, payload)


@FUZZ
@given(st.data())
def test_bitmap_nodes_at_widest_word(data):
    """``distinct_improved`` at w = 63 packs 62 keys into each node's bitmap,
    so its shifts reach bit 61 and its spans approach ``2**62``."""
    cfg = WordConfig(63)
    n = data.draw(st.integers(1, 48))
    top = data.draw(st.sampled_from([62 * n, 62 * n * 3, cfg.max_key]))
    lo = data.draw(st.integers(0, cfg.max_key - min(top, cfg.max_key)))
    keys = data.draw(
        st.lists(st.integers(lo, min(cfg.max_key, lo + top)), min_size=n, max_size=n, unique=True)
    )
    stride = data.draw(st.sampled_from([1, 2, -1]))
    _assert_same(_sorter_run("distinct_improved", cfg), keys, stride=stride)


def _entry_run(entry, cfg, traced):
    """``run(K, P, counters)`` of ``sort`` with the sorter ``entry`` (its
    registry function, if ``traced``, returning the events its trace saw),
    of ``sort_by_key``, or of ``argsort_keys`` writing its answer into ``K``
    and ``P``."""
    if entry == "argsort_keys":
        def run(K, P, c):
            K[:], P[:] = argsort_keys(K, cfg, c)
    elif entry == "sort_by_key" or traced:
        def run(K, P, c):
            events = []
            trace = lambda phase, passes, a: events.append((phase, passes, a.tolist()))
            if entry == "sort_by_key":
                sort_by_key(K, P, cfg=cfg, counters=c, trace=trace if traced else None)
            else:
                ALGORITHMS[entry](K, cfg=cfg, counters=c, trace=trace)
            return events
    else:
        run = lambda K, P, c: assocsort.sort(K, entry, cfg=cfg, counters=c)
    return run


@FUZZ
@given(st.data())
def test_full_universe(data):
    """Keys anywhere in ``int64``, at strides 1, 2 and -1: through ``sort``
    for every value sorter, and through ``sort_by_key`` and
    ``argsort_keys``, both backends give the same outcome (traces across
    shifted and split parts included), and it is numpy's sort: payloads
    stay with their keys, and ``argsort_keys``' permutation gives its
    sorted keys."""
    entry = data.draw(st.sampled_from(SORTERS + ["argsort_keys"]))
    cfg = WordConfig(data.draw(st.integers(4, 63)))
    n = data.draw(st.integers(0, min(40, cfg.tag_mask)))
    unique = entry in DISTINCT_ONLY
    shape = data.draw(st.sampled_from(["whole", "ends", "window"]))
    if shape == "whole":
        values = INT64
    elif shape == "ends":  # crowd the least and the greatest int64
        near = 4 * n
        values = st.integers(-(2**63), -(2**63) + near) | st.integers(2**63 - 1 - near, 2**63 - 1)
    else:
        lo = data.draw(INT64)
        width = max(data.draw(st.integers(1, 100 * n + 1)), 2 * n if unique else 1)
        values = st.integers(lo, min(2**63 - 1, lo + width - 1))
    keys = data.draw(st.lists(values, min_size=n, max_size=n, unique=unique))
    payload = None
    if entry == "sort_by_key":
        payload = data.draw(st.lists(INT64, min_size=n, max_size=n))
    elif entry == "argsort_keys":
        payload = [0] * n
    stride = data.draw(st.sampled_from([1, 2, -1]))
    traced = entry != "argsort_keys" and data.draw(st.booleans())
    kbuf, pbuf, _, error, _ = _assert_same(_entry_run(entry, cfg, traced), keys, payload, stride)
    assert error is None
    K = np.array(kbuf, dtype=np.int64)[::stride][:n]
    assert K.tolist() == sorted(keys)
    if payload is not None:
        P = np.array(pbuf, dtype=np.int64)[::stride][:n]
        if entry == "sort_by_key":
            assert sorted(zip(K.tolist(), P.tolist())) == sorted(zip(keys, payload))
        else:
            assert sorted(P.tolist()) == list(range(n))
            assert np.array_equal(np.array(keys, dtype=np.int64)[P], K)
