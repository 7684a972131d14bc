"""Registry, façade helpers, and keys over the whole ``int64`` range."""

import numpy as np
import pytest

import assocsort
from assocsort.adapter import ALGORITHMS, perm_rank_words, resolve_algorithm
from assocsort.errors import DuplicateKeyError, WordRangeError
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
    """Keys outside ``[0, 2**(w-1))`` through ``sort``: shifted down by
    their minimum where their range fits the word, else split at its
    midpoint, each part by the same rule."""

    def test_top_bit_keys(self, backend):
        S = arr(200, 3, 130, 7)
        assocsort.sort(S, cfg=CFG8)
        assert S.tolist() == [3, 7, 130, 200]

    def test_random_full_range(self, backend, rng):
        for algo in ("assoc_improved", "assoc_seq", "assoc_rec", "perm_rank"):
            for lo, hi in ((0, 256), (-(2**63), 2**63 - 1)):
                vals = rng.integers(lo, hi, size=120, dtype=np.int64)
                S = vals.copy()
                assocsort.sort(S, algo, cfg=CFG8)
                assert np.array_equal(S, reference_sort(vals)), (algo, lo)

    def test_distinct_full_range(self, backend, rng):
        for algo in ("distinct_improved", "cycle_distinct"):
            for scale in (1, 2**46):
                vals = rng.choice(2**16, size=400, replace=False).astype(np.int64) * scale
                S = vals - 2**15 * scale
                assocsort.sort(S, algo, cfg=WordConfig(16))
                assert np.array_equal(S, reference_sort(vals - 2**15 * scale)), (algo, scale)

    @pytest.mark.parametrize(
        "keys, key", [([200, 3, 130, 200, 7], 200), ([3, 130, 3], 3), ([-4, 9, -4], -4)]
    )
    def test_repeated_key_is_named_as_the_input_held_it(self, backend, keys, key):
        """A part sorted shifted down by its minimum reports its repeated
        key with the shift added back."""
        with pytest.raises(DuplicateKeyError, match=f"^key {key} occurs more than once$") as exc:
            assocsort.sort(arr(*keys), "distinct_improved", cfg=CFG8)
        assert exc.value.key == key

    def test_cycle_leader_cannot_name_its_repeated_key(self, backend):
        with pytest.raises(DuplicateKeyError) as exc:
            assocsort.sort(arr(200, 3, 130, 200, 7), "cycle_distinct", cfg=CFG8)
        assert exc.value.key is None

    def test_all_words_in_one_half(self, backend, rng):
        lo = rng.integers(0, 128, size=60).astype(np.int64)
        for shift in (0, 128, -(2**63)):
            S = lo + shift
            assocsort.sort(S, cfg=CFG8)
            assert np.array_equal(S, reference_sort(lo + shift)), shift

    def test_empty(self, backend):
        c = assocsort.sort(np.empty(0, dtype=np.int64), cfg=CFG8)
        assert c.passes == 0

    def test_validation(self, backend):
        """Keys the top-bit split refused sort; more words than node slots
        are still refused, before any is written."""
        for keys in ([256], [-1], [256, -1, 2**63 - 1, 3]):
            S = arr(*keys)
            assocsort.sort(S, cfg=CFG8)
            assert S.tolist() == sorted(keys)
        S = np.arange(CFG8.tag_mask + 1, dtype=np.int64) * -3
        with pytest.raises(WordRangeError):
            assocsort.sort(S, cfg=CFG8)
        assert S.tolist() == list(range(0, -3 * (CFG8.tag_mask + 1), -3))
