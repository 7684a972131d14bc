"""Differential fuzz: the ``c`` backend against the plain ``numpy`` one.

Every registry sorter, ``sort_by_key`` and ``sort_full_universe`` run on
the same input under both backends, at word widths 4..63, and must leave
the same keys and payload, the same four ``OpCounters`` fields, and, when
they refuse or fail, the same exception with the same message.  The
strategies lean on the edges of the word model: a segment of exactly
``2**(w-1)`` words at small ``w``, keys at ``max_key``, duplicate-heavy
runs at ``w`` = 4..6 where companions are live, the bitmap sorter at
``w`` = 63 (63-bit words, 62 keys per node), and strided keys and
payloads.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from assocsort.adapter import ALGORITHMS, sort_full_universe
from assocsort.backend import available, use_backend
from assocsort.counters import OpCounters
from assocsort.ranksort import sort_by_key
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
    """Run ``run(K, P)`` on fresh views; returns everything observable."""
    kbuf, K = _view(keys, stride)
    pbuf, P = _view(payload, stride) if payload is not None else (None, None)
    counters = OpCounters()
    try:
        run(K, P, counters)
        error = None
    except Exception as exc:  # the refusal itself is compared
        error = (type(exc).__name__, str(exc))
    return (
        kbuf.tolist(),
        None if pbuf is None else pbuf.tolist(),
        (counters.passes, counters.moves, counters.node_creations, counters.max_depth),
        error,
    )


def _assert_same(run, keys, payload=None, stride=1):
    results = {}
    for name in ("numpy", "c"):
        with use_backend(name):
            results[name] = _outcome(run, keys, payload, stride)
    assert results["c"] == results["numpy"]


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


@FUZZ
@given(st.data())
def test_full_universe(data):
    """Keys over all ``w`` bits, up to ``2**63 - 1`` at w = 63."""
    w = data.draw(st.integers(4, 63))
    cfg = WordConfig(w)
    algo = data.draw(st.sampled_from(sorted(set(ALGORITHMS) - DISTINCT_ONLY)))
    n = data.draw(st.integers(0, min(40, cfg.tag_mask)))
    top = 2**w - 1
    near = data.draw(st.booleans())
    lo = max(0, top - 4 * n) if near else 0
    keys = data.draw(st.lists(st.integers(lo, top), min_size=n, max_size=n))
    stride = data.draw(st.sampled_from([1, 2, -1]))
    run = lambda K, P, c: sort_full_universe(K, algo, cfg=cfg, counters=c)
    _assert_same(run, keys, stride=stride)
