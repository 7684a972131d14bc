"""Key/payload sorting through rank prefix sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
