"""Run one workload of the assocsort benchmark and print its metrics.

    python3 benchmark/run.py --workload dense-sort --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  A workload is a closed loop: one thread in one process, and
the next operation starts only when the previous one has returned.
Every operation sorts instances freshly drawn from a stream seeded by
``--seed``.  Only the sort calls are timed; inputs are drawn and outputs
checked outside the timed region.

Sort times are reported in units of a calibration loop (see
:mod:`calib`) timed between sort calls, and set-up time is scaled by the
same loop timed in the set-up process, so that drift in the machine's
own speed cancels.  The plain wall-clock figures are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop with every kernel call wrapped in a span, prints the per-layer
metrics and writes the spans to ``benchmark/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import assocsort  # noqa: E402  (from SRC; the run fails here without it)
import assocsort.backend  # noqa: E402
from calib import CAL_REF_S, calibrate  # noqa: E402
from tracing import Tracer, layer_values, per_layer_units  # noqa: E402
from workloads import WORKLOADS, verify  # noqa: E402

SETUP_PROCESSES = 9  # fresh processes whose set-up is timed in each run
# The memory operation runs at n / MEM_SHRINK: tracemalloc slows the plain
# backend's per-word loops 15-20x, and the figure it gives is a ratio to
# the input's bytes (O(n) scratch doubles it at any n).
MEM_SHRINK = 8

END_TO_END_UNITS = {
    "keys_per_cal": "keys/cal",
    "op_cal_p50": "cal",
    "setup_s": "s",
    "mem_peak_bytes": "bytes",
}

# Runs in a fresh interpreter: times the package import and its warm-up,
# after numpy, which the package needs but does not own, is imported;
# then the calibration loop, in the same process.
_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy
t0 = time.perf_counter()
import assocsort
t1 = time.perf_counter()
name = assocsort.warmup()
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from calib import calibrate
print(t1 - t0, t2 - t1, calibrate() / 1e9, name)
"""


def probe_setup() -> tuple:
    """``(import_s, warmup_s, cal_s, backend)`` from a fresh process."""
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    imp, warm, cal, name = out.stdout.split()
    return float(imp), float(warm), float(cal), name


def scaled_setup(setup: List[tuple], part) -> float:
    """Median set-up seconds at the reference speed (one cal in
    ``CAL_REF_S``); ``part`` picks the time out of a sample."""
    return CAL_REF_S * statistics.median(part(s) / s[2] for s in setup)


def measure_setup() -> List[tuple]:
    """Set-up samples from ``SETUP_PROCESSES`` fresh processes.

    One untimed process goes first, so that compiling the package's
    bytecode, which a user pays once per install, is not counted.
    """
    probe_setup()
    return [probe_setup() for _ in range(SETUP_PROCESSES)]


@dataclass
class Tally:
    """What one closed loop did, operation by operation."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # operations whose output the verifier rejected
    op_ns: List[int] = field(default_factory=list)  # operations that passed
    op_cal: List[float] = field(default_factory=list)  # the same, in cal units
    cal_ns: List[int] = field(default_factory=list)
    npsort_ns: List[int] = field(default_factory=list)
    keys: int = 0
    sort_ns: int = 0
    sorts: List[tuple] = field(default_factory=list)  # (driver, n, counters)


def settle(tally: Tally, label: str, calls, befores, results, error) -> bool:
    """Count one operation and verify it; ``True`` when it passed.

    ``results`` holds the counters of the calls that returned, ``error``
    why a call raised (or ``None``).
    """
    tally.attempted += 1
    reason = error
    if reason is None:
        for call, before, counters in zip(calls, befores, results):
            why = verify(call, before, counters)
            if why is not None:
                reason = f"{call.algo}: {why}"
                break
    if reason is None:
        return True
    tally.failed += 1
    tally.wrong += error is None
    print(f"{label} failed: {reason}", file=sys.stderr)
    return False


def run_loop(workload, seed: int, seconds: float, n: int, tracer=None) -> Tally:
    """Closed loop of operations for ``seconds`` (at least one operation).

    The calibration loop runs before the first sort call and after each
    one.  A call's time in cal units is its wall time over the mean of the
    two calibrations around it; an operation's is the sum over its calls.
    """
    rng = workload.rng(seed)
    tally = Tally()
    deadline = time.perf_counter() + seconds
    tally.cal_ns.append(calibrate())
    while True:
        op = tally.attempted
        calls = workload.make(rng, n)
        befores = [c.keys.copy() for c in calls]
        call_ns, call_cal, results, error = [], [], [], None
        for call in calls:
            sid = tracer.open_sort(op) if tracer else None
            t0 = time.perf_counter_ns()
            try:
                results.append(call.run())
            except Exception as exc:  # a sort that raises fails its operation
                error = f"{call.algo} raised {exc!r}"
            t1 = time.perf_counter_ns()
            if tracer:
                tracer.close_sort(sid, f"{call.driver}.{call.algo}", t0, t1)
            tally.cal_ns.append(calibrate())
            if error:
                break
            call_ns.append(t1 - t0)
            call_cal.append(2 * (t1 - t0) / sum(tally.cal_ns[-2:]))
        if settle(tally, f"operation {op}", calls, befores, results, error):
            tally.op_ns.append(sum(call_ns))
            tally.op_cal.append(sum(call_cal))
            tally.keys += sum(len(b) for b in befores)
            tally.sort_ns += sum(call_ns)
            tally.sorts += [(c.driver, len(c.keys), r) for c, r in zip(calls, results)]
            t0 = time.perf_counter_ns()
            for before in befores:
                np.sort(before)
            tally.npsort_ns.append(time.perf_counter_ns() - t0)
        if time.perf_counter() >= deadline:
            return tally


def peak_memory(workload, seed: int, n: int, tally: Tally) -> int:
    """Input bytes plus the ``tracemalloc`` peak of one untimed operation.

    The operation is the first one of the seed's stream, drawn at size
    ``n``.  The largest figure over its sort calls is returned; the
    operation is verified and counted like any other.
    """
    calls = workload.make(workload.rng(seed), n)
    befores = [c.keys.copy() for c in calls]
    results, error, peak = [], None, 0
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                results.append(call.run())
            except Exception as exc:  # a sort that raises fails its operation
                error = f"{call.algo} raised {exc!r}"
                break
            peak = max(peak, call.nbytes + tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    settle(tally, "memory operation", calls, befores, results, error)
    return peak


def median_ms(ns: List[int]) -> float:
    return statistics.median(ns) / 1e6 if ns else 0.0


def wall_clock(tally: Tally, setup: List[tuple]) -> dict:
    """The run's plain wall-clock figures, with their units."""
    return {
        "keys_per_s": (tally.keys / (tally.sort_ns / 1e9) if tally.sort_ns else 0.0, "keys/s"),
        "op_ms_p50": (median_ms(tally.op_ns), "ms"),
        "cal_ms_p50": (median_ms(tally.cal_ns), "ms"),
        "setup_s": (statistics.median(s[0] + s[1] for s in setup), "s"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            setup: List[tuple], n: Optional[int] = None) -> tuple:
    """Run one workload; returns the result object the command prints
    last, and the wall-clock figures it prints before it.

    ``setup`` holds the samples of :func:`measure_setup`; ``n`` overrides
    the workload's size (the self-test runs tiny instances).
    """
    workload = WORKLOADS[name]
    n = workload.n if n is None else n
    assocsort.warmup()
    if trace:
        with Tracer(assocsort.backend.active()) as tracer:
            tally = run_loop(workload, seed, seconds, n, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
        values = layer_values(tracer.spans, tally.sorts, max(len(tally.op_ns), 1))
        values["backend.import_s"] = scaled_setup(setup, lambda s: s[0])
        values["backend.warmup_s"] = scaled_setup(setup, lambda s: s[1])
        values["trace.op_cal_p50"] = statistics.median(tally.op_cal or [0.0])
        values["trace.op_ms_p50"] = median_ms(tally.op_ns)
        values["trace.cal_ms_p50"] = median_ms(tally.cal_ns)
        values["ref.npsort_ms_p50"] = median_ms(tally.npsort_ns)
        units = per_layer_units()
    else:
        tally = run_loop(workload, seed, seconds, n)
        values = {
            "keys_per_cal": tally.keys / sum(tally.op_cal) if tally.op_cal else 0.0,
            "op_cal_p50": statistics.median(tally.op_cal or [0.0]),
            "setup_s": scaled_setup(setup, lambda s: s[0] + s[1]),
            "mem_peak_bytes": peak_memory(workload, seed, max(n // MEM_SHRINK, 1), tally),
        }
        units = END_TO_END_UNITS
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }, wall_clock(tally, setup)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    setup = measure_setup()
    result, wall = measure(args.workload, args.seed, args.seconds, bool(args.trace), setup)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"backend {assocsort.current_backend()}  "
          f"operations {result['attempted']} ({result['failed']} failed)")
    for k, (value, unit) in wall.items():
        print(f"  wall-clock {k:<33} {value:>16.6g} {unit}")
    for k, m in result["metrics"].items():
        print(f"  {k:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
