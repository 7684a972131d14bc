"""Registry, façade helpers, and full-universe partitioning."""

import numpy as np
import pytest

import assocsort
from assocsort.adapter import (
    ALGORITHMS,
    perm_rank_words,
    resolve_algorithm,
    sort_full_universe,
)
from assocsort.errors import WordRangeError
from assocsort.words import WordConfig

from .conftest import arr
from .oracles import reference_sort

CFG8 = WordConfig(8)


class TestRegistry:
    def test_known_ids(self):
        assert set(ALGORITHMS) == {
            "cycle_distinct",
            "assoc_seq",
            "assoc_rec",
            "assoc_improved",
            "distinct_improved",
            "perm_rank",
        }

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError) as exc:
            resolve_algorithm("bogosort")
        assert "bogosort" in str(exc.value)

    def test_every_entry_sorts(self, backend, rng):
        distinct_only = {"cycle_distinct", "distinct_improved"}
        for name, fn in ALGORITHMS.items():
            if name in distinct_only:
                vals = rng.choice(5000, size=300, replace=False).astype(np.int64)
            else:
                vals = rng.integers(0, 5000, size=300).astype(np.int64)
            S = vals.copy()
            c = fn(S, cfg=WordConfig(32))
            assert np.array_equal(S, reference_sort(vals)), name
            assert c.passes >= 1


class TestConvenience:
    def test_sort_defaults(self, rng):
        vals = rng.integers(0, 10**9, size=500).astype(np.int64)
        S = vals.copy()
        assocsort.sort(S)
        assert np.array_equal(S, reference_sort(vals))

    def test_sort_by_name(self, rng):
        vals = rng.integers(0, 2000, size=200).astype(np.int64)
        S = vals.copy()
        assocsort.sort(S, algo="assoc_rec")
        assert np.array_equal(S, reference_sort(vals))

    def test_perm_rank_words(self, backend, rng):
        vals = rng.integers(0, 700, size=250).astype(np.int64)
        S = vals.copy()
        perm_rank_words(S, cfg=WordConfig(32))
        assert np.array_equal(S, reference_sort(vals))


class TestFullUniverse:
    def test_top_bit_keys(self, backend):
        S = arr(200, 3, 130, 7)
        sort_full_universe(S, cfg=CFG8)
        assert S.tolist() == [3, 7, 130, 200]

    def test_random_full_range(self, backend, rng):
        for algo in ("assoc_improved", "assoc_seq", "assoc_rec", "perm_rank"):
            vals = rng.integers(0, 256, size=120).astype(np.int64)
            S = vals.copy()
            sort_full_universe(S, algo=algo, cfg=CFG8)
            assert np.array_equal(S, reference_sort(vals)), algo

    def test_distinct_full_range(self, backend, rng):
        vals = rng.choice(2**16, size=400, replace=False).astype(np.int64)
        S = vals.copy()
        sort_full_universe(S, algo="distinct_improved", cfg=WordConfig(16))
        assert np.array_equal(S, reference_sort(vals))

    def test_all_words_in_one_half(self, backend, rng):
        lo = rng.integers(0, 128, size=60).astype(np.int64)
        S = lo.copy()
        sort_full_universe(S, cfg=CFG8)
        assert np.array_equal(S, reference_sort(lo))
        hi = lo + 128
        S = hi.copy()
        sort_full_universe(S, cfg=CFG8)
        assert np.array_equal(S, reference_sort(hi))

    def test_empty(self, backend):
        c = sort_full_universe(np.empty(0, dtype=np.int64), cfg=CFG8)
        assert c.passes == 0

    def test_validation(self, backend):
        with pytest.raises(WordRangeError):
            sort_full_universe(arr(256,), cfg=CFG8)
        with pytest.raises(WordRangeError):
            sort_full_universe(arr(-1,), cfg=CFG8)
