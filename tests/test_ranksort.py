"""Key/payload sorting through rank prefix sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocsort import kernels
from assocsort.backend import BACKENDS, active, available, use_backend
from assocsort.counters import OpCounters
from assocsort.errors import InputError, WordRangeError
from assocsort.ranksort import argsort_keys, sort_by_key
from assocsort.words import WordConfig

from .conftest import arr
from .oracles import reference_sort

CFG16 = WordConfig(16)
CFG32 = WordConfig(32)


def _pairs(K, P):
    return sorted(zip(K.tolist(), P.tolist()))


class TestSortByKey:
    def test_pairs_survive(self, backend, rng):
        for _ in range(40):
            n = int(rng.integers(1, 500))
            K = rng.integers(0, 4 * n, size=n).astype(np.int64)
            P = rng.integers(0, 10**9, size=n).astype(np.int64)
            before = _pairs(K, P)
            sort_by_key(K, P, CFG32)
            assert np.all(K[:-1] <= K[1:])
            assert _pairs(K, P) == before

    def test_payload_identifies_origin(self, backend, rng):
        orig = rng.integers(0, 300, size=200).astype(np.int64)
        K = orig.copy()
        P = np.arange(len(K), dtype=np.int64)
        sort_by_key(K, P, CFG32)
        assert np.array_equal(orig[P], K)
        assert sorted(P.tolist()) == list(range(len(K)))

    def test_multi_pass_spread_keys(self, backend, rng):
        n = 400
        K = (np.arange(n, dtype=np.int64) * 13)[rng.permutation(n)]
        P = K * 1000 + 7  # payload derived from key, checkable after
        c = sort_by_key(K, P, CFG32)
        assert np.all(K[:-1] < K[1:])
        assert np.array_equal(P, K * 1000 + 7)
        assert c.passes > 1

    def test_heavy_duplicates(self, backend, rng):
        K = rng.choice([5, 9, 1000], size=300).astype(np.int64)
        P = rng.permutation(300).astype(np.int64)
        before = _pairs(K, P)
        sort_by_key(K, P, CFG32)
        assert np.all(K[:-1] <= K[1:])
        assert _pairs(K, P) == before

    def test_edge_shapes(self, backend):
        K = np.empty(0, dtype=np.int64)
        P = np.empty(0, dtype=np.int64)
        c = sort_by_key(K, P, CFG16)
        assert c.passes == 0
        K, P = arr(7), arr(99)
        sort_by_key(K, P, CFG16)
        assert K.tolist() == [7] and P.tolist() == [99]

    def test_length_mismatch(self, backend):
        with pytest.raises(ValueError):
            sort_by_key(arr(1, 2), arr(1), CFG16)

    def test_key_validation(self, backend):
        """Keys outside ``[0, 2**(w-1))`` sort exactly, each carrying its
        payload; more words than node slots are still refused."""
        for keys in ([-1], [1 << 15], [1 << 15, -1, 4, -1], [2**63 - 1, -(2**63), 0, 2**63 - 1]):
            K, P = arr(*keys), np.arange(len(keys), dtype=np.int64)
            sort_by_key(K, P, CFG16)
            assert K.tolist() == sorted(keys)
            assert _pairs(K, P) == _pairs(arr(*keys), np.arange(len(keys), dtype=np.int64))
        slots = np.zeros(CFG16.tag_mask + 1, np.int64)
        with pytest.raises(WordRangeError):
            sort_by_key(slots, slots.copy(), CFG16)

    def test_trace_phases(self, backend, rng):
        K = rng.integers(0, 50, size=40).astype(np.int64)
        P = np.arange(40, dtype=np.int64)
        seen = []
        sort_by_key(K, P, CFG32, trace=lambda ph, p, a: seen.append(ph))
        cycle = ["practice", "accumulate", "repractice", "reactivate", "restore"]
        assert seen == cycle * (len(seen) // 5)

    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(st.integers(min_value=0, max_value=200), max_size=80))
    def test_property_pairs_survive(self, data):
        K = np.array(data, dtype=np.int64)
        P = np.arange(len(K), dtype=np.int64) + 1000
        before = _pairs(K, P)
        sort_by_key(K, P, CFG32)
        assert K.tolist() == sorted(data)
        assert _pairs(K, P) == before


class TestArgsortKeys:
    def test_contract(self, backend, rng):
        keys = rng.integers(0, 900, size=350).astype(np.int64)
        snapshot = keys.copy()
        out, perm = argsort_keys(keys, CFG32)
        assert np.array_equal(keys, snapshot)  # input untouched
        assert np.array_equal(out, reference_sort(keys))
        assert np.array_equal(keys[perm], out)
        assert sorted(perm.tolist()) == list(range(len(keys)))

    @pytest.mark.parametrize(
        "keys",
        [[1.7, 0.2, 3.9], np.array([3.0, 1.0, 2.0]), [True, False], [1, 2**70],
         np.array([1, 2**63 + 5], dtype=np.uint64)],
        ids=["floats", "integral float64", "bools", "past int64", "uint64 past int64"],
    )
    def test_inexact_keys_refused(self, keys):
        """An ``int64`` copy of these would truncate, reinterpret or not
        exist, breaking ``sorted_keys[i] == keys[perm[i]]``."""
        with pytest.raises(InputError):
            argsort_keys(keys, CFG32)


def _keys(n, shape, rng):
    """``n`` keys: drawn over ``shape`` times n (at least one value), or a
    permutation."""
    if shape == "perm":
        return rng.permutation(n).astype(np.int64)
    return rng.integers(0, max(1, int(shape * n)), size=n).astype(np.int64)


def _view(words, step):
    """``words`` in a view of step ``step`` of an array of their own."""
    V = np.zeros(len(words) * abs(step), dtype=np.int64)[::step]
    V[:] = words
    return V


def _segment(n, n_sorted, repeats, tag, rng):
    """``n`` keys whose rank sort's first pass settles ``n_sorted``: those
    over ``[0, n)`` (``n / 4`` values of it where ``repeats``, 0 among
    them), the rest past ``n`` and below ``tag``, in random order."""
    pool = rng.integers(0, n, size=max(1, n // 4)) if repeats else np.arange(n)
    settled = rng.choice(pool, size=n_sorted)
    settled[0] = 0
    deferred = rng.integers(n, min(tag, 5 * n), size=n - n_sorted)
    return rng.permutation(np.concatenate([settled, deferred])).astype(np.int64)


def _ticketed(keys, tag):
    """Keys and payload ramp of a rank sort's first pass just before its
    reactivation, by the active backend (practiced, accumulated and
    ticketed), and the pass's ``n_sorted``."""
    n, k = len(keys), active()
    K, P = keys.copy(), np.arange(n, dtype=np.int64)
    delta = int(K.min())
    n_d, n_c = k.practice(K, 0, n, delta, 0, n, 1, 1, tag, P)[:2]
    k.accumulate_records(K, 0, n, tag)
    assert k.repractice_idle(K, 0, n, delta, n, tag) == (n_c, 0)
    return K, P, n_d + n_c


def _reactivated(K, P, n_sorted, tag):
    """What one reactivation of a ticketed segment must leave, by no
    kernel: the words and payloads of the prefix, where every node and
    ticket sits at its destination, a node reading ``tag | its former
    slot``; the (key, payload) multiset of the deferred keys, which the
    tail holds; and how many words move, those not final where they are."""
    words, pays, tail, moved = [None] * n_sorted, [None] * n_sorted, [], 0
    for i, (x, p) in enumerate(zip(K.tolist(), P.tolist())):
        if x & tag:
            d, x = x & (tag - 1), tag | i
        elif x < n_sorted:
            d = x
        else:
            tail.append((x, p))
            moved += i < n_sorted
            continue
        assert words[d] is None
        words[d], pays[d], moved = x, p, moved + (d != i)
    return words, pays, sorted(tail), moved


# (w, n, n_sorted): one settled key, fewer than CHAINS, both sides of
# block boundaries (blocks of ceil(n_sorted / CHAINS) words, some empty
# below 2 * CHAINS words), all but one and all; a segment of tag words at
# w = 12, which defers nothing, and one of tag - 1 words that defers a key.
ORACLE_CASES = [
    *((63, n, m) for n in (1, 2, 3, 9, 40)
      for m in sorted({1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, n - 1, n}) if 1 <= m <= n),
    *((63, 1029, m) for m in (1, 3, 257, 258, 1028, 1029)),
    (12, 2048, 2048),
    (12, 2047, 2046),
]


@pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "repeats"])
@pytest.mark.parametrize("w, n, n_sorted", ORACLE_CASES, ids=lambda x: str(x))
def test_reactivate_leaves_the_oracle(w, n, n_sorted, repeats):
    """One reactivation of a ticketed segment leaves what
    :func:`_reactivated` says, on every backend and through views of step
    1, 2 and -1, with the same words, payloads, moves and status
    everywhere; ``moves``, 2 a placement and 1 a hole, lies between 2 and 3
    a word that moves."""
    tag = 1 << (w - 1)
    rng = np.random.default_rng([0xC4A1, w, n, n_sorted, int(repeats)])
    K0, P0, m = _ticketed(_segment(n, n_sorted, repeats, tag, rng), tag)
    assert m == n_sorted
    words, pays, tail, moved = _reactivated(K0, P0, m, tag)
    got = set()
    for name in (b for b in BACKENDS if available(b)):
        for step in (1, 2, -1):
            K, P = _view(K0, step), _view(P0, step)
            with use_backend(name):
                moves, status = active().reactivate(K, P, 0, n, m, tag)
            assert status == kernels.STATUS_OK, (name, step)
            assert K[:m].tolist() == words and P[:m].tolist() == pays, (name, step)
            assert sorted(zip(K[m:].tolist(), P[m:].tolist())) == tail, (name, step)
            assert 2 * moved <= moves <= 3 * moved, (name, step)
            got.add((moves, tuple(K.tolist()), tuple(P.tolist())))
    assert len(got) == 1


@pytest.mark.parametrize("w, n", [(12, 2047), (12, 2048), (63, 1023), (63, 1024)])
def test_every_rank_pass_reactivates_through_reactivate(w, n, monkeypatch):
    """A spy on ``kernels.reactivate`` sees it called once by every pass of
    the ``numpy`` loop, passes that defer keys included (keys over 3n and
    30n, where the word has room for them); the sorts give the same words,
    payloads and counters on every backend."""
    rng = np.random.default_rng([0xF100, w, n])
    cfg, called = WordConfig(w), []
    react = kernels.reactivate
    monkeypatch.setattr(kernels, "reactivate", lambda K, P, lo, hi, n_sorted, tag: (
        called.append(n_sorted < hi - lo) or react(K, P, lo, hi, n_sorted, tag)))
    for shape in ("perm", 1 / 4, 3, 30):
        keys = _keys(n, shape, rng) % (cfg.tag_mask + 1)
        got = set()
        for name in (b for b in BACKENDS if available(b)):
            K, P, c = keys.copy(), np.arange(n, dtype=np.int64), OpCounters()
            called.clear()
            with use_backend(name):
                sort_by_key(K, P, cfg, counters=c)
            assert np.array_equal(K, np.sort(keys)) and np.array_equal(keys[P], K)
            got.add((tuple(K.tolist()), tuple(P.tolist()), c.passes, c.moves,
                     c.node_creations))
            if name == "numpy":
                assert len(called) == c.passes and called[-1] is False, shape
                assert any(called) == (c.passes > 1), shape
                assert any(called) or shape in ("perm", 1 / 4) or 3 * n > cfg.tag_mask
        assert len(got) == 1, shape
