"""The counting associative sort: per-pass and stacked-memory drivers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocsort.backend import active
from assocsort.core import check_words, sort_associative, sort_associative_recursive
from assocsort.counters import OpCounters
from assocsort.errors import WordRangeError
from assocsort.kernels import pass_budget
from assocsort.words import WordConfig

from .conftest import arr
from .oracles import (
    counting_pass_count,
    counting_passes,
    decode_memory,
    practice_oracle,
    reference_sort,
    sorted_runs,
)

CFG8 = WordConfig(8)
CFG16 = WordConfig(16)
CFG32 = WordConfig(32)

DRIVERS = [sort_associative, sort_associative_recursive]
DRIVER_IDS = ["sequential", "recursive"]
# Each driver, and whether it stacks its memories.
DRIVERS_STACKED = list(zip(DRIVERS, (False, True)))


def _random_inputs(rng, count=60):
    for _ in range(count):
        n = int(rng.integers(1, 400))
        hi = int(rng.integers(1, 4 * n + 2))
        yield rng.integers(0, hi, size=n).astype(np.int64)


class TestCheckWords:
    def test_bounds(self, backend):
        assert check_words(arr(0, 5, 127), CFG8) == (0, 127)
        with pytest.raises(WordRangeError):
            check_words(arr(-1,), CFG8)
        with pytest.raises(WordRangeError):
            check_words(arr(128,), CFG8)  # tag bit territory


class TestPracticePhase:
    """The counting variant's practice, store and retrieve kernels, each
    with the interval a pass gives it: ``[delta, delta + n - eps)``,
    hashed ``eps`` slots into the segment."""

    def test_summary_matches_oracle(self, backend, rng):
        for vals in _random_inputs(rng, 40):
            n = len(vals)
            delta = int(vals.min())
            eps, _ = pass_budget(n, CFG32.w)
            S = vals.copy()
            n_d, n_c, n_def, dnext, _, created, _ = active().practice(
                S, 0, n, delta, eps, n - eps, 1, CFG32.w - 1, CFG32.tag_mask
            )
            e_d, e_c, e_def, e_next = practice_oracle(vals.tolist(), delta, n - eps)
            assert (n_d, n_c, n_def) == (e_d, e_c, e_def)
            assert (None if dnext < 0 else int(dnext)) == e_next
            assert created == e_d

    def test_storage_decodes_to_run_counts(self, backend, rng):
        tag = CFG16.tag_mask
        for vals in _random_inputs(rng, 40):
            n = len(vals)
            delta = int(vals.min())
            eps, split = pass_budget(n, CFG16.w)
            S = vals.copy()
            k = active()
            n_d, *_ = k.practice(S, 0, n, delta, eps, n - eps, 1, CFG16.w - 1, tag)
            eps_used, stored, _, status = k.store_nodes(
                S, 0, n, delta, n - eps, split, tag, eps
            )
            assert status == 0 and stored == n_d + eps_used
            got = decode_memory(S, 0, n_d, eps_used, delta, eps, 1, split, tag)
            expect = [(key, cnt - 1) for key, cnt in sorted_runs(vals.tolist(), delta, n - eps)]
            assert got == expect

    def test_memory_retrieves_sorted(self, backend, rng):
        # practice + store + retrieve on inputs narrow enough for one pass
        tag = CFG32.tag_mask
        for _ in range(25):
            n = int(rng.integers(2, 300))
            eps, split = pass_budget(n, CFG32.w)
            vals = rng.integers(0, n - eps, size=n).astype(np.int64) + 50
            S = vals.copy()
            k = active()
            n_d, n_c, n_def, *_ = k.practice(S, 0, n, 50, eps, n - eps, 1, CFG32.w - 1, tag)
            assert n_def == 0
            eps_used, *_ = k.store_nodes(S, 0, n, 50, n - eps, split, tag, eps)
            written, _, status = k.retrieve_packed(
                S, 0, n_d + eps_used, n_d + n_c, 50, eps, 1, split, tag
            )
            assert status == 0 and written == n
            assert np.array_equal(S, reference_sort(vals))


@pytest.mark.parametrize("driver", DRIVERS, ids=DRIVER_IDS)
class TestFullSort:
    def test_random(self, backend, driver, rng):
        for vals in _random_inputs(rng):
            S = vals.copy()
            c = driver(S, CFG32)
            assert np.array_equal(S, reference_sort(vals))
            assert c.passes >= 1

    def test_word_sizes(self, backend, driver, rng):
        for w in (8, 16, 32, 63):
            cfg = WordConfig(w)
            n = min(500, cfg.tag_mask)
            hi = min(cfg.max_key + 1, 100_000)
            vals = rng.integers(0, hi, size=n).astype(np.int64)
            S = vals.copy()
            driver(S, cfg)
            assert np.array_equal(S, reference_sort(vals))

    def test_edge_shapes(self, backend, driver):
        for data in ([], [7], [3, 3, 3, 3], [0, 1, 2, 3], [3, 2, 1, 0], [127, 0]):
            S = np.array(data, dtype=np.int64)
            driver(S, CFG8)
            assert S.tolist() == sorted(data)

    def test_single_pass_when_range_fits(self, backend, driver, rng):
        # keys below n - eps fit one count pass, also where eps > 0: at
        # w = 8 over 100 words (7 bits of position, none of count, eps 50)
        # and at w = 16 over 300 (eps 4)
        for w, n in ((32, 256), (8, 100), (16, 300)):
            eps, _ = pass_budget(n, w)
            vals = rng.integers(0, n - eps, size=n).astype(np.int64)
            S = vals.copy()
            c = driver(S, WordConfig(w))
            assert c.passes == 1
            assert np.array_equal(S, reference_sort(vals))

    def test_companion_pressure(self, backend, driver):
        # every key repeated just past the packed-count threshold, the
        # shape that once exhausted the companion budget
        cfg = WordConfig(6)
        vals = np.repeat(np.arange(4, dtype=np.int64), 3)
        rs = np.random.default_rng(3)
        rs.shuffle(vals)
        S = vals.copy()
        driver(S, cfg)
        assert np.array_equal(S, reference_sort(vals))

        vals = np.repeat(np.arange(3333, dtype=np.int64), 3)
        rs.shuffle(vals)
        S = vals.copy()
        driver(S, CFG16)
        assert np.array_equal(S, reference_sort(vals))

    def test_skewed_duplicates(self, backend, driver, rng):
        for _ in range(30):
            n = int(rng.integers(4, 600))
            n_keys = int(rng.integers(1, max(2, n // 3)))
            keys = rng.integers(0, 3 * n, size=n_keys)
            vals = rng.choice(keys, size=n).astype(np.int64)
            S = vals.copy()
            driver(S, CFG32)
            assert np.array_equal(S, reference_sort(vals))

    def test_validation(self, backend, driver):
        with pytest.raises(WordRangeError):
            driver(arr(-3, 1), CFG8)
        with pytest.raises(WordRangeError):
            driver(arr(1, 130), CFG8)
        with pytest.raises(WordRangeError):
            driver(np.zeros(CFG8.tag_mask + 1, dtype=np.int64), CFG8)

    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(st.integers(min_value=0, max_value=127), max_size=100))
    def test_property_sorts_any_multiset(self, driver, data):
        S = np.array(data, dtype=np.int64)
        driver(S, CFG8)
        assert S.tolist() == sorted(data)


class TestSequentialDriver:
    def test_trace_cycle(self, backend, rng):
        vals = rng.integers(0, 10_000, size=60).astype(np.int64)
        seen = []
        sort_associative(vals, CFG32, trace=lambda ph, p, a: seen.append((ph, p)))
        phases = [ph for ph, _ in seen]
        assert phases == ["practice", "partition", "retrieve"] * (len(phases) // 3)

    def test_pass_counting(self, backend, rng):
        # keys spread so each pass can only take a narrow slice
        n = 100
        vals = (np.arange(n, dtype=np.int64) * n)[rng.permutation(n)]
        c = sort_associative(vals, CFG32)
        assert np.all(vals[:-1] <= vals[1:])
        assert c.passes > 1


class TestPassCount:
    """Both counting drivers make exactly the passes of the
    :func:`~tests.oracles.counting_passes` model: a pass whose keys reach
    past its count interval packs where the word has room."""

    @pytest.mark.parametrize("w", [8, 16, 32, 63])
    def test_passes_match_the_oracle(self, backend, rng, w):
        """Keys over 1/2 to 1000 times as many values as keys, at each
        width: among the passes are packed ones and count ones, and, at
        w = 8 and 16, count passes that reserve ``eps`` words and count
        passes whose keys reach past the interval but whose word has no
        room for two fields."""
        cfg = WordConfig(w)
        forms = set()
        for _ in range(30):
            n = int(rng.integers(1, min(400, cfg.tag_mask) + 1))
            m = min(max(1, int(n * rng.choice([0.5, 3, 30, 1000]))), cfg.max_key + 1)
            vals = rng.integers(0, m, size=n) + rng.integers(0, cfg.max_key + 2 - m)
            for driver, stacked in DRIVERS_STACKED:
                S = vals.astype(np.int64)
                c = driver(S, cfg)
                assert np.array_equal(S, reference_sort(vals))
                passes = counting_passes(vals, w, stacked)
                assert c.passes == len(passes), (n, m, stacked)
                forms |= {("packed" if F > 1 else "eps" if eps else
                           "reaches" if reaches else "count") for eps, F, reaches in passes}
        assert forms >= {"packed", "count"} | ({"eps", "reaches"} if w <= 16 else set())

    def test_paper_variants_shape(self, backend):
        """The benchmark's paper-variants keys: 5000 keys drawn from 2500
        values over 100n, at w = 63, where almost every pass packs."""
        r = np.random.default_rng(17)
        pool = r.choice(100 * 5000, size=2500, replace=False)
        vals = pool[r.integers(0, 2500, size=5000)].astype(np.int64)
        for driver, stacked in DRIVERS_STACKED:
            S = vals.copy()
            c = driver(S)
            assert np.array_equal(S, reference_sort(vals))
            assert c.passes == counting_pass_count(vals, 63, stacked)


class TestRecursiveDriver:
    def test_deep_chain(self, backend):
        # stride n keys: every pass settles exactly one, so the memory
        # stack reaches full depth before unwinding
        n = 5000
        rs = np.random.default_rng(9)
        vals = (np.arange(n, dtype=np.int64) * n)[rs.permutation(n)]
        c = sort_associative_recursive(vals, CFG32)
        assert np.all(vals[:-1] < vals[1:])
        assert c.passes == n
        assert c.max_depth == n

    def test_trace_unwind(self, backend, rng):
        """Every practice, then every retrieval, numbered by the pass that
        practiced the level: in reverse, also on counters that already
        hold passes."""
        vals = (np.arange(20, dtype=np.int64) * 20)[rng.permutation(20)]
        seen = []
        sort_associative_recursive(vals, CFG32, trace=lambda ph, p, a: seen.append(ph))
        k = seen.index("retrieve")
        assert set(seen[:k]) == {"practice"}
        assert set(seen[k:]) == {"retrieve"}
        assert seen.count("practice") == seen.count("retrieve")

        vals = arr(1, 50, 3, 100, 7, 200, 9, 150, 2, 400)
        c = OpCounters(passes=5)
        seen = []
        sort_associative_recursive(vals, CFG16, c, trace=lambda ph, p, a: seen.append((ph, p)))
        assert vals.tolist() == [1, 2, 3, 7, 9, 50, 100, 150, 200, 400]
        practiced = [p for ph, p in seen if ph == "practice"]
        assert practiced == list(range(6, c.passes + 1)) and c.passes > 6
        assert seen == [("practice", p) for p in practiced] + [
            ("retrieve", p) for p in reversed(practiced)]

    def test_depth_tracked_vs_passes(self, backend, rng):
        vals = rng.integers(0, 50_000, size=400).astype(np.int64)
        c = sort_associative_recursive(vals, CFG32)
        assert 1 <= c.max_depth <= c.passes
