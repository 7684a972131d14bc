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


TAG = 1 << 62


def _keys(n, shape, rng):
    """``n`` keys: drawn over ``shape`` times n (at least one value), a
    permutation, or all equal."""
    if shape == "perm":
        return rng.permutation(n).astype(np.int64)
    if shape == "equal":
        return np.full(n, 7, dtype=np.int64)
    return rng.integers(0, max(1, int(shape * n)), size=n).astype(np.int64)


def _view(words, step):
    """``words`` in a view of step ``step`` of an array of their own."""
    V = np.zeros(len(words) * abs(step), dtype=np.int64)[::step]
    V[:] = words
    return V


def _ticketed(keys):
    """Keys and payload ramp of a rank sort's first pass just before its
    reactivation, by the active backend: practiced, accumulated and
    ticketed.  The pass defers nothing, since its span is the segment."""
    n, k = len(keys), active()
    K, P = keys.copy(), np.arange(n, dtype=np.int64)
    delta = int(K.min())
    n_d, n_c = k.practice(K, 0, n, delta, 0, n, 1, 1, TAG, P)[:2]
    assert n_d + n_c == n
    k.accumulate_records(K, 0, n, TAG)
    assert k.repractice_idle(K, 0, n, delta, n, TAG) == (n_c, 0)
    return K, P


# Both sides of CHAIN_FLOOR and of every block boundary of the chains
# (blocks of ceil(n / CHAINS) words; some empty below 2 * CHAINS words).
CHAIN_CASES = [
    *((n, shapes, (1, 2, -1)) for n in (*range(1, 10), 15, 16, 17, 1023, 1024, 1025,
                                        1026, 1027, 4097)
      for shapes in [(1 / 64, 1 / 4, 1, "perm", "equal")]),
    (1 << 17, (1 / 4, "perm"), (1,)),
]


@pytest.mark.parametrize("n, shapes, steps", CHAIN_CASES, ids=lambda x: str(x))
def test_chains_leave_what_reactivate_leaves(backend, n, shapes, steps):
    """On a segment that defers nothing, ``reactivate_cursors`` leaves the
    keys, payloads and status of ``reactivate``, through views of every
    step; only the moves may differ, each counted by the kernel's rule."""
    rng = np.random.default_rng([0xC4A1, n])
    k = active()
    for shape in shapes:
        K0, P0 = _ticketed(_keys(n, shape, rng))
        for step in steps:
            K, P = _view(K0, step), _view(P0, step)
            want = k.reactivate(K, P, 0, n, n, TAG)
            K2, P2 = _view(K0, step), _view(P0, step)
            got = k.reactivate_cursors(K2, P2, 0, n, TAG)
            assert got[1] == want[1] == kernels.STATUS_OK, (shape, step)
            assert np.array_equal(K2, K) and np.array_equal(P2, P), (shape, step)


def test_chains_count_their_own_writes(backend):
    """``moves`` is 2 a placement and 1 a hole: keys ``[1, 1, 0, 0]`` leave
    node 0 at its destination and a cycle through slots 1, 2 and 3 (node
    1 bound for slot 2, tickets 3 and 1), which the chain of slot 2 enters
    and walks: 3 placements and 1 hole."""
    K0, P0 = _ticketed(np.array([1, 1, 0, 0], dtype=np.int64))
    assert K0.tolist() == [TAG, TAG | 2, 3, 1] and P0.tolist() == [2, 0, 1, 3]
    K, P = K0.copy(), P0.copy()
    assert active().reactivate_cursors(K, P, 0, 4, TAG) == (7, kernels.STATUS_OK)
    assert K.tolist() == [TAG, 1, TAG | 1, 3] and P.tolist() == [2, 3, 0, 1]


@pytest.mark.parametrize("w, n", [(12, 2047), (12, 2048), (63, 1023), (63, 1024)])
def test_rank_passes_take_the_chains_where_they_may(w, n, monkeypatch):
    """Guard: a pass that defers nothing takes the chains from
    ``CHAIN_FLOOR`` words up, below ``tag`` words only, since a record of
    ``tag - 1`` would be a hole (the front door admits ``tag`` words),
    and a pass that defers keys never; such sorts give the same words,
    payloads and counters on every backend."""
    rng = np.random.default_rng([0xF100, w, n])
    cfg, called = WordConfig(w), []
    chains = kernels.reactivate_cursors
    monkeypatch.setattr(kernels, "reactivate_cursors",
                        lambda K, P, lo, hi, tag: called.append(hi - lo) or chains(K, P, lo, hi, tag))
    for shape in ("perm", 1 / 4, 3):
        keys = _keys(n, shape, rng) if shape != 3 else rng.integers(0, 3 * n, n)
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
                takes = shape != 3 and kernels.CHAIN_FLOOR <= n < cfg.tag_mask
                assert called == ([n] if takes else []), (shape, called)
        assert len(got) == 1, shape
