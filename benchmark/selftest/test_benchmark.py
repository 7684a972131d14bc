"""Self-test of the benchmark: tiny runs of every workload, a verifier
that rejects corrupted outputs, spans that account for the sort time,
and a command line that matches ``BENCHMARK.json``.

    python3 -m pytest benchmark/selftest -q

It lives beside the benchmark, apart from the package's tests.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ on sys.path)
import assocsort  # noqa: E402
import assocsort.backend  # noqa: E402
from tracing import DRIVERS, KERNELS, Tracer, layer_values, per_layer_units  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402

FAKE_SETUP = [(0.01, 0.02, 0.008, "any")]


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_completes_without_failures(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result, wall = run.measure(name, seed=3, seconds=0.0, trace=trace,
                               setup=FAKE_SETUP, n=WORKLOADS[name].tiny_n)
    assert all(value > 0 for value, _ in wall.values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (1 if trace else 2)  # + the memory operation
    units = per_layer_units() if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    if trace:
        assert list(tmp_path.glob(f"spans-{name}-seed3.jsonl"))
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _swap_adjacent_pair(call, counters):
    K = call.keys
    i = int(np.flatnonzero(np.diff(K))[0])
    K[i], K[i + 1] = K[i + 1], K[i]


def _detach_payload(call, counters):
    K, P = call.keys, call.payload
    j = int(np.flatnonzero(K != K[0])[0])
    P[0], P[j] = P[j], P[0]


def _second_pass(call, counters):
    counters.passes = 2


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("dense-sort", _swap_adjacent_pair),
        ("paper-variants", _swap_adjacent_pair),
        ("rank-pairs", _detach_payload),
        ("dense-sort", _second_pass),
    ],
)
def test_corrupted_output_fails_its_operation(name, corrupt, monkeypatch):
    real_run = Call.run

    def corrupted(self):
        counters = real_run(self)
        corrupt(self, counters)
        return counters

    monkeypatch.setattr(Call, "run", corrupted)
    w = WORKLOADS[name]
    tally = run.run_loop(w, 0, 0.0, w.tiny_n)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
    assert tally.op_ns == []


def test_each_call_is_divided_by_the_calibrations_around_it(monkeypatch):
    cal = [10, 30, 20, 40, 60]
    monkeypatch.setattr(run, "calibrate", iter(cal).__next__)
    w = WORKLOADS["paper-variants"]
    with Tracer(assocsort.backend.active()) as tracer:
        tally = run.run_loop(w, 0, 0.0, w.tiny_n, tracer)
    call_ns = [s.ns for s in tracer.spans if not s.is_kernel]
    assert tally.cal_ns == cal and len(call_ns) == 4
    expected = sum(2 * ns / (a + b) for ns, a, b in zip(call_ns, cal, cal[1:]))
    assert tally.op_cal == [pytest.approx(expected)]


def test_raising_sort_fails_its_operation_without_a_wrong_output(monkeypatch):
    def raising(self):
        raise assocsort.CorruptStateError("injected")

    monkeypatch.setattr(Call, "run", raising)
    w = WORKLOADS["sparse-sort"]
    tally = run.run_loop(w, 0, 0.0, w.tiny_n)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)


def test_same_seed_draws_the_same_instances():
    w = WORKLOADS["paper-variants"]
    a = w.make(w.rng(7), w.tiny_n)
    b = w.make(w.rng(7), w.tiny_n)
    c = w.make(w.rng(8), w.tiny_n)
    assert all(np.array_equal(x.keys, y.keys) for x, y in zip(a, b))
    assert not all(np.array_equal(x.keys, y.keys) for x, y in zip(a, c))


def test_spans_account_for_the_sort_time():
    w = WORKLOADS["paper-variants"]
    ns = assocsort.backend.active()
    before = dict(vars(ns))
    with Tracer(ns) as tracer:
        tally = run.run_loop(w, 1, 0.0, w.tiny_n, tracer)
    assert dict(vars(ns)) == before  # the kernels are unwrapped again

    sorts = {s.id: s for s in tracer.spans if not s.is_kernel}
    kernels = sorted((s for s in tracer.spans if s.is_kernel), key=lambda s: s.start_ns)
    assert len(sorts) == 4 and kernels
    for k in kernels:
        parent = sorts[k.parent]
        assert parent.start_ns <= k.start_ns <= k.end_ns <= parent.end_ns
    assert all(a.end_ns <= b.start_ns for a, b in zip(kernels, kernels[1:]))

    values = layer_values(tracer.spans, tally.sorts, 1)
    self_ms = [values[f"{d}.self_ms"] for d in DRIVERS]
    kernel_ms = sum(values[f"kernels.{k}.ms_per_op"] for k in KERNELS)
    assert min(self_ms) >= 0
    assert sum(self_ms) + kernel_ms == pytest.approx(
        sum(s.ns for s in sorts.values()) / 1e6
    )
    assert values["core.max_depth"] >= 1
    assert values["cycle_leader.passes"] >= 1


def test_setup_is_timed_in_fresh_processes():
    samples = run.measure_setup()
    assert len(samples) == run.SETUP_PROCESSES
    for imp, warm, cal, backend in samples:
        assert imp > 0 and warm > 0 and cal > 0
        assert backend == assocsort.current_backend()


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_command_prints_its_result_last():
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "rank-pairs",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "dense-sort",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
