"""Benchmark harness: generators, baselines, CSV and trace output."""

import json

import numpy as np
import pytest

from assocsort.bench import (
    BASELINES,
    CSV_HEADER,
    TRACE_LIMIT,
    BenchRow,
    counting_sort_baseline,
    feasible,
    gen_distinct,
    gen_exponential,
    gen_uniform,
    lsd_radix_baseline,
    make_trace_writer,
    run_bench,
    summarize,
    verify,
    write_csv,
)
from assocsort.errors import VerificationError
from assocsort.words import WordConfig

from .conftest import arr
from .oracles import reference_sort


class TestGenerators:
    def test_deterministic_per_tuple(self):
        a = gen_uniform(100, 1000, seed=7, trial=2)
        b = gen_uniform(100, 1000, seed=7, trial=2)
        assert np.array_equal(a, b)
        c = gen_uniform(100, 1000, seed=7, trial=3)
        assert not np.array_equal(a, c)

    def test_ranges(self):
        for gen in (gen_uniform, gen_exponential):
            vals = gen(500, 300, seed=1)
            assert vals.dtype == np.int64
            assert vals.min() >= 0 and vals.max() < 300

    def test_exponential_is_skewed(self):
        vals = gen_exponential(2000, 10_000, seed=3)
        assert np.median(vals) < 10_000 / 2

    def test_distinct_dense_and_sparse(self):
        for m in (600, 10**9):  # dense draw vs rejection sampling
            vals = gen_distinct(500, m, seed=5)
            assert len(np.unique(vals)) == 500
            assert vals.min() >= 0 and vals.max() < m

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_uniform(5, 0, seed=0)
        with pytest.raises(ValueError):
            gen_distinct(10, 9, seed=0)


class TestBaselines:
    def test_all_sort(self, rng):
        vals = rng.integers(0, 10**6, size=2000).astype(np.int64)
        for name, fn in BASELINES.items():
            S = vals.copy()
            fn(S, cfg=WordConfig(63))
            assert np.array_equal(S, reference_sort(vals)), name

    def test_counting_cap(self):
        with pytest.raises(ValueError):
            counting_sort_baseline(arr(0, 1 << 20), cap=1024)

    def test_radix_handles_zero_and_max(self):
        S = arr(2**62, 0, 5, 2**62 - 1)
        lsd_radix_baseline(S)
        assert S.tolist() == [0, 5, 2**62 - 1, 2**62]

    @pytest.mark.parametrize("keys", [(-3, -1), (3, -1, 2)])
    def test_radix_refuses_negative_keys(self, keys):
        # [-3, -1] never returned (mx >> shift never reached 0) and
        # [3, -1, 2] came back [2, 3, -1].
        S = arr(*keys)
        with pytest.raises(ValueError):
            lsd_radix_baseline(S)
        assert S.tolist() == list(keys)


class TestVerify:
    def test_passes_silently(self):
        verify(arr(1, 2, 3), arr(3, 1, 2))

    def test_reports_first_divergence(self):
        with pytest.raises(VerificationError) as exc:
            verify(arr(1, 5, 3), arr(3, 1, 2), label="unit")
        assert exc.value.index == 1
        assert "unit" in str(exc.value)
        assert "index 1" in str(exc.value)

    def test_length_mismatch(self):
        with pytest.raises(VerificationError):
            verify(arr(1, 2), arr(1, 2, 3))


class TestCsv:
    def test_row_matches_header(self):
        row = BenchRow("assoc_improved", 4, 8, "uniform", 0, 1, 999, 1, 12, 3, 1)
        line = row.csv_line()
        assert len(line.split(",")) == len(CSV_HEADER.split(","))
        assert line == "assoc_improved,4,8,uniform,0,1,999,1,12,3,1"

    def test_file_shape(self, tmp_path):
        rows = [
            BenchRow("npsort", 4, 8, "uniform", 0, t, 100 + t, 0, 0, 0, 1)
            for t in range(3)
        ]
        path = tmp_path / "out.csv"
        write_csv(rows, str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4


def _zero_elapsed(rows):
    out = []
    for row in rows:
        parts = row.csv_line().split(",")
        parts[6] = "0"
        out.append(",".join(parts))
    return out


class TestRunBench:
    def test_grid_and_verification(self):
        rows = run_bench(
            ["assoc_improved", "npsort"], [32, 64], [1.0], ["uniform"],
            seed=3, trials=2, w=32, do_verify=True, warm=False,
        )
        assert len(rows) == 8
        assert all(r.verified == 1 for r in rows)
        assert all(r.elapsed_ns > 0 for r in rows)
        base = [r for r in rows if r.algo == "npsort"]
        assert all(r.passes == 0 for r in base)

    def test_unverified_rows_say_so(self):
        rows = run_bench(
            ["assoc_improved"], [16], [1.0], ["uniform"],
            seed=0, trials=1, w=32, do_verify=False, warm=False,
        )
        assert [r.verified for r in rows] == [0]

    def test_infeasible_cells_skipped(self):
        # distinct at ratio 0.5 means m < n: no such instance exists
        rows = run_bench(
            ["cycle_distinct"], [64], [0.5, 2.0], ["distinct"],
            seed=0, trials=1, w=32, warm=False,
        )
        assert [(r.n, r.m) for r in rows] == [(64, 128)]

    def test_rows_byte_stable_modulo_timing(self):
        kw = dict(seed=9, trials=2, w=32, do_verify=True, warm=False)
        a = run_bench(["assoc_improved", "lsd_radix"], [32], [1.0, 4.0], ["uniform"], **kw)
        b = run_bench(["assoc_improved", "lsd_radix"], [32], [1.0, 4.0], ["uniform"], **kw)
        assert _zero_elapsed(a) == _zero_elapsed(b)

    def test_summarize_mentions_algos(self):
        rows = run_bench(
            ["assoc_improved", "npsort"], [32], [1.0], ["uniform"],
            seed=2, trials=3, w=32, warm=False,
        )
        text = "\n".join(summarize(rows))
        assert "assoc_improved" in text and "npsort" in text


class TestTrace:
    def test_json_lines_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        cfg = WordConfig(32)
        with open(path, "w", encoding="utf-8") as fh:
            run_bench(
                ["assoc_improved"], [16], [1.0], ["uniform"],
                seed=4, trials=1, w=32, trace=make_trace_writer(fh, cfg), warm=False,
            )
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"phase", "pass", "array"}
            assert obj["phase"] in {"practice", "store", "partition", "retrieve"}
            assert obj["pass"] >= 1
            for cell in obj["array"]:
                assert set(cell) == {"word", "tagged"}
                assert isinstance(cell["tagged"], bool)

    def test_large_arrays_not_traced(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            run_bench(
                ["assoc_improved"], [TRACE_LIMIT * 2], [1.0], ["uniform"],
                seed=4, trials=1, w=32,
                trace=make_trace_writer(fh, WordConfig(32)), warm=False,
            )
        assert path.read_text() == ""

    def test_snapshot_matches_array_length(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            run_bench(
                ["assoc_improved"], [24], [1.0], ["uniform"],
                seed=6, trials=1, w=32,
                trace=make_trace_writer(fh, WordConfig(32)), warm=False,
            )
        for line in path.read_text().splitlines():
            assert len(json.loads(line)["array"]) == 24


class TestFeasible:
    def test_rules(self):
        cfg8 = WordConfig(8)
        assert feasible("assoc_seq", 16, 100, "uniform", cfg8)
        assert not feasible("assoc_seq", 0, 100, "uniform", cfg8)
        assert not feasible("assoc_seq", 200, 100, "uniform", cfg8)  # n > slots
        assert not feasible("assoc_seq", 16, 300, "uniform", cfg8)  # m > slots
        assert not feasible("cycle_distinct", 16, 8, "distinct", cfg8)  # m < n
        assert not feasible("cycle_distinct", 16, 100, "uniform", cfg8)
        assert feasible("cycle_distinct", 16, 100, "distinct", cfg8)
        assert not feasible("distinct_improved", 16, 100, "exponential", cfg8)
