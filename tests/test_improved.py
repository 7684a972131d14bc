"""Node-scan variants: records parked at the front, tags left in place."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocsort.errors import DuplicateKeyError, WordRangeError
from assocsort.improved import sort_distinct_improved, sort_improved

from assocsort.words import WordConfig

from .conftest import arr
from .oracles import improved_pass_count, reference_sort

CFG8 = WordConfig(8)
CFG16 = WordConfig(16)
CFG32 = WordConfig(32)


class TestSortImproved:
    def test_single_pass_when_range_below_n(self, backend, rng):
        for n in (1, 2, 50, 999):
            vals = rng.integers(0, n, size=n).astype(np.int64) + 300
            S = vals.copy()
            c = sort_improved(S, CFG32)
            assert c.passes == 1
            assert np.array_equal(S, reference_sort(vals))

    def test_retrieval_write_must_respect_surviving_tags(self, backend):
        # three sparse keys and a block of deferred duplicates: the run
        # of the largest in-interval key is written across positions
        # whose tag bits still mark later nodes, so an unmasked write
        # would destroy them
        vals = np.array([5, 7, 14] + [1005] * 7, dtype=np.int64)
        rs = np.random.default_rng(2)
        for _ in range(10):
            S = vals.copy()
            rs.shuffle(S)
            expect = reference_sort(S)
            c = sort_improved(S, CFG32)
            assert np.array_equal(S, expect)
            assert c.passes == 2

    def test_random_multisets(self, backend, rng):
        for _ in range(50):
            n = int(rng.integers(1, 500))
            hi = int(rng.integers(1, 6 * n))
            vals = rng.integers(0, hi, size=n).astype(np.int64)
            S = vals.copy()
            sort_improved(S, CFG32)
            assert np.array_equal(S, reference_sort(vals))

    def test_word_sizes(self, backend, rng):
        for w in (8, 16, 32, 63):
            cfg = WordConfig(w)
            n = min(400, cfg.tag_mask)
            vals = rng.integers(0, min(cfg.max_key, 10**6) + 1, size=n).astype(np.int64)
            S = vals.copy()
            sort_improved(S, cfg)
            assert np.array_equal(S, reference_sort(vals))

    def test_edge_shapes(self, backend):
        for data in ([], [9], [4, 4, 4], [1, 0], [127, 0, 127]):
            S = np.array(data, dtype=np.int64)
            sort_improved(S, CFG8)
            assert S.tolist() == sorted(data)

    def test_spread_pass_envelope(self, backend):
        # uniform keys over 20n at n = 10**4: each pass consumes the
        # interval of its packed nodes, F counters of seg.bit_length()
        # bits a word, so exactly the oracle's passes
        r = np.random.default_rng(5)
        S = r.integers(0, 20 * 10_000, size=10_000).astype(np.int64)
        expect = reference_sort(S)
        passes = improved_pass_count(S, CFG32.w)
        c = sort_improved(S, CFG32)
        assert np.array_equal(S, expect)
        assert c.passes == passes

    def test_sparse_sort_shape_passes(self, backend):
        # the benchmark's sparse sort: 5000 keys over 100n at w = 63
        r = np.random.default_rng(16)
        S = r.integers(0, 100 * 5000, size=5000).astype(np.int64)
        expect = reference_sort(S)
        passes = improved_pass_count(S, 63)
        c = sort_improved(S)
        assert np.array_equal(S, expect)
        assert c.passes == passes

    def test_keys_over_3n_sort_in_one_pass(self, backend):
        # 5000 keys over 3n: the first pass packs 62 // 13 = 4 counters of
        # 13 bits a word, an interval of 4n keys
        r = np.random.default_rng(17)
        S = r.integers(0, 3 * 5000, size=5000).astype(np.int64)
        expect = reference_sort(S)
        c = sort_improved(S)
        assert np.array_equal(S, expect)
        assert c.passes == improved_pass_count(expect, 63) == 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(st.integers(min_value=0, max_value=2**15 - 1), max_size=300))
    def test_property_packed_passes_match_the_oracle(self, data):
        # at w = 16 a pass over up to 300 words packs 15 // b counters of
        # b = seg.bit_length() bits where it packs at all
        S = np.array(data, dtype=np.int64)
        c = sort_improved(S, CFG16)
        assert S.tolist() == sorted(data)
        assert c.passes == improved_pass_count(data, 16)

    def test_trace_cycle(self, backend, rng):
        vals = rng.integers(0, 2_000, size=50).astype(np.int64)
        seen = []
        sort_improved(vals, CFG32, trace=lambda ph, p, a: seen.append(ph))
        assert seen == ["practice", "store", "partition", "retrieve"] * (len(seen) // 4)

    def test_validation(self, backend):
        with pytest.raises(WordRangeError):
            sort_improved(arr(-1,), CFG8)
        with pytest.raises(WordRangeError):
            sort_improved(arr(200,), CFG8)

    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(st.integers(min_value=0, max_value=127), max_size=90))
    def test_property_sorts_any_multiset(self, data):
        S = np.array(data, dtype=np.int64)
        sort_improved(S, CFG8)
        assert S.tolist() == sorted(data)


class TestSortDistinctImproved:
    def test_bitmap_example_single_pass(self, backend):
        # one node covers w - 1 = 8 keys, so {0, 3, 10} needs two nodes
        # and exactly one pass at w = 9
        S = arr(10, 3, 0)
        c = sort_distinct_improved(S, WordConfig(9))
        assert S.tolist() == [0, 3, 10]
        assert c.passes == 1

    def test_single_pass_covers_wm1_times_n(self, backend, rng):
        n = 500
        keys = rng.choice((CFG32.w - 1) * n, size=n, replace=False)
        S = np.sort(keys)[rng.permutation(n)].astype(np.int64)
        expect = reference_sort(S)
        c = sort_distinct_improved(S, CFG32)
        assert np.array_equal(S, expect)
        assert c.passes == 1

    def test_random_distinct(self, backend, rng):
        for _ in range(40):
            n = int(rng.integers(1, 400))
            keys = rng.choice(50 * n, size=n, replace=False).astype(np.int64)
            S = keys.copy()
            sort_distinct_improved(S, CFG32)
            assert np.array_equal(S, reference_sort(keys))

    def test_duplicate_raises_with_key(self, backend):
        with pytest.raises(DuplicateKeyError) as exc:
            sort_distinct_improved(arr(4, 9, 4), CFG16)
        assert "4" in str(exc.value)

    def test_duplicate_in_later_pass(self, backend):
        S = np.concatenate([np.arange(40, dtype=np.int64) * 37, [999, 999]])
        with pytest.raises(DuplicateKeyError):
            sort_distinct_improved(S, CFG16)

    def test_narrow_words_clamp_span(self, backend):
        # at w = 4 the interval formula (w-1) * n exceeds the key
        # universe itself; every subset of [0, 8) must still sort
        cfg = WordConfig(4)
        rs = np.random.default_rng(8)
        for _ in range(30):
            n = int(rs.integers(1, 9))
            keys = rs.choice(8, size=n, replace=False).astype(np.int64)
            S = keys.copy()
            c = sort_distinct_improved(S, cfg)
            assert np.array_equal(S, reference_sort(keys))
            assert c.passes == 1

    def test_spread_pass_envelope(self, backend):
        # distinct keys over the full 15-bit universe at n = 1000:
        # measured 8-11 passes
        r = np.random.default_rng(6)
        S = r.choice(2**15 - 1, size=1000, replace=False).astype(np.int64)
        expect = reference_sort(S)
        c = sort_distinct_improved(S, CFG16)
        assert np.array_equal(S, expect)
        assert 6 <= c.passes <= 14

    def test_validation(self, backend):
        with pytest.raises(WordRangeError):
            sort_distinct_improved(arr(-2, 0), CFG16)
        with pytest.raises(WordRangeError):
            sort_distinct_improved(np.zeros(CFG8.tag_mask + 1, dtype=np.int64), CFG8)

    @settings(max_examples=60, deadline=None)
    @given(keys=st.sets(st.integers(min_value=0, max_value=127), max_size=100))
    def test_property_sorts_any_distinct_set(self, keys):
        S = np.array(sorted(keys), dtype=np.int64)
        shuffled = S[np.random.default_rng(4).permutation(len(S))] if len(S) else S
        sort_distinct_improved(shuffled, CFG8)
        assert np.array_equal(shuffled, S)
