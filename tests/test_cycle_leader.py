"""Distinct-key sorting without tag bits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocsort.backend import active
from assocsort.cycle_leader import sort_distinct_keys
from assocsort.errors import DuplicateKeyError, WordRangeError
from assocsort.words import WordConfig

from .conftest import arr

CFG32 = WordConfig(32)


class TestPassPrimitives:
    def test_practice_then_partition(self, backend):
        S = arr(9, 0, 3, 1, 12)
        k = active()
        n_d, dnext, _, status = k.implicit_practice(S, 0, 5, 0)
        assert status == 0
        assert n_d == 3
        assert dnext == 9
        count, _ = k.collect_fixpoints(S, 0, 5, 0)
        assert count == 3
        assert S[:3].tolist() == [0, 1, 3]
        assert sorted(S[3:].tolist()) == [9, 12]


class TestSortDistinctKeys:
    def test_random_sets(self, backend, rng):
        for n in (1, 2, 3, 17, 200, 1500):
            S = rng.choice(10 * n, size=n, replace=False).astype(np.int64)
            expect = np.sort(S)
            c = sort_distinct_keys(S, CFG32)
            assert np.array_equal(S, expect)
            assert 1 <= c.passes <= n

    def test_dense_permutation_single_pass(self, backend, rng):
        S = rng.permutation(300).astype(np.int64) + 7
        c = sort_distinct_keys(S, CFG32)
        assert S.tolist() == list(range(7, 307))
        assert c.passes == 1

    def test_stride_two_pass_count(self, backend, rng):
        # the pass count depends only on the key set (partitioning keeps
        # order, practicing settles the same keys either way), so these
        # values are exact: each pass halves what remains
        for n, expect in ((100, 7), (1000, 10)):
            S = np.arange(0, 2 * n, 2, dtype=np.int64)
            rng.shuffle(S)
            c = sort_distinct_keys(S, CFG32)
            assert np.all(S[:-1] < S[1:])
            assert c.passes == expect

    def test_thousand_keys_from_a_million(self, backend):
        # n = 1000 over a range of 10**6: the pass count stays under
        # both the n cap and floor((m - 1) / (n - 1)) + 1 = 1002
        r = np.random.default_rng(11)
        S = r.choice(10**6, size=1000, replace=False).astype(np.int64)
        expect = np.sort(S)
        c = sort_distinct_keys(S, CFG32)
        assert np.array_equal(S, expect)
        assert c.passes <= 1000
        assert c.passes <= 1002

    def test_duplicate_keys_detected(self, backend):
        with pytest.raises(DuplicateKeyError):
            sort_distinct_keys(arr(5, 6, 5), CFG32)

    def test_duplicate_deferred_keys_detected(self, backend):
        # the repeat only collides in a later pass
        with pytest.raises(DuplicateKeyError):
            sort_distinct_keys(arr(90, 90, 5), CFG32)

    def test_range_validation(self, backend):
        with pytest.raises(WordRangeError):
            sort_distinct_keys(arr(-1, 3), CFG32)
        cfg8 = WordConfig(8)
        with pytest.raises(WordRangeError):
            sort_distinct_keys(arr(3, 200), cfg8)  # 200 > 2**7 - 1
        with pytest.raises(WordRangeError):
            sort_distinct_keys(
                np.arange(cfg8.tag_mask + 1, dtype=np.int64), cfg8
            )

    def test_empty(self, backend):
        c = sort_distinct_keys(np.empty(0, dtype=np.int64), CFG32)
        assert c.passes == 0

    def test_trace_phases(self, backend, rng):
        S = rng.choice(5000, size=64, replace=False).astype(np.int64)
        seen = []
        sort_distinct_keys(S, CFG32, trace=lambda ph, p, a: seen.append((ph, p, len(a))))
        phases = [ph for ph, _, _ in seen]
        assert phases[:2] == ["practice", "partition"]
        assert phases == ["practice", "partition"] * (len(phases) // 2)
        assert all(ln == 64 for _, _, ln in seen)
        passes = [p for _, p, _ in seen]
        assert passes == sorted(passes)

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=10_000), max_size=120))
    def test_property_sorts_any_distinct_set(self, keys):
        S = np.array(sorted(keys), dtype=np.int64)
        rs = np.random.default_rng(1).permutation(len(S))
        shuffled = S[rs] if len(S) else S
        c = sort_distinct_keys(shuffled, CFG32)
        assert np.array_equal(shuffled, S)
        if len(S):
            assert c.passes <= max(1, len(S))
