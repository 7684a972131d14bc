"""Spans around sort calls and kernel calls, and the per-layer metrics
computed from them.

The tracer wraps every callable on the kernel namespace that
``assocsort.backend.active()`` hands the drivers, so nothing under
``src/`` changes.  A span is recorded per sort call (made by the
benchmark) and per kernel call (made by a driver); spans are kept in
memory and written out when the run ends.  Kernels do not call each
other through the namespace, so kernel spans never nest: a driver's self
time is its sort spans' time minus the kernel spans inside them.
"""

import itertools
import json
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List, NamedTuple, Optional

# Kernels the workloads reach, in the order their metrics are printed.
KERNELS = (
    "min_max",
    "practice",
    "store_records",
    "partition_values",
    "retrieve_node_scan",
    "store_nodes",
    "retrieve_packed",
    "practice_super",
    "retrieve_super",
    "implicit_practice",
    "collect_fixpoints",
    "practice_rank",
    "accumulate_records",
    "repractice_idle",
    "reactivate",
    "restore_keys",
)
DRIVERS = ("improved", "core", "cycle_leader", "ranksort")
KERNEL_PREFIX = "kernels."

# Argument positions of the (lo, hi) bounds of the words a kernel may
# touch; the word count is computed from them, not counted by the kernel.
_BOUNDS = {
    "retrieve_packed": (1, 3),  # (S, lo, mem_hi, write_end, ...)
    "practice_rank": (2, 3),  # (K, P, lo, hi, ...)
    "reactivate": (2, 3),  # (K, P, lo, hi, ...)
    "radix_pass": (None, 2),  # (src, dst, n, shift)
}


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    op: int
    name: str  # "kernels.<kernel>" or "<driver>.<algo>"
    start_ns: int
    end_ns: int
    words: int  # computed from the bounds arguments; 0 for sort spans

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def is_kernel(self) -> bool:
        return self.name.startswith(KERNEL_PREFIX)


class Tracer:
    """Context manager that wraps a kernel namespace while it is open.

    ``spans`` is filled when the context closes; while it is open the
    wrapper only appends a raw tuple, to keep the cost per kernel call low.
    """

    def __init__(self, kernels):
        self.spans: List[Span] = []
        self._ns = kernels
        self._orig = dict(vars(kernels))
        self._raw: list = []  # (id, (parent, op), name, t0, t1, lo, hi)
        self._ids = itertools.count()
        self._owner = (None, -1)  # (sort span, op) that new kernel spans join

    def __enter__(self) -> "Tracer":
        for name, fn in self._orig.items():
            setattr(self._ns, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._orig.items():
            setattr(self._ns, name, fn)
        self.spans = [
            Span(sid, parent, op, name, t0, t1, int(hi) - int(lo))
            for sid, (parent, op), name, t0, t1, lo, hi in self._raw
        ]

    def _wrap(self, name, fn):
        lo_i, hi_i = _BOUNDS.get(name, (1, 2))
        label = KERNEL_PREFIX + name
        raw, ids, tracer = self._raw, self._ids, self

        def traced(*args):
            t0 = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                raw.append((next(ids), tracer._owner, label, t0, perf_counter_ns(),
                            0 if lo_i is None else args[lo_i], args[hi_i]))

        return traced

    def open_sort(self, op: int) -> int:
        """Start attributing kernel spans to a new sort span of ``op``."""
        sid = next(self._ids)
        self._owner = (sid, op)
        return sid

    def close_sort(self, sid: int, name: str, t0: int, t1: int) -> None:
        self._raw.append((sid, (None, self._owner[1]), name, t0, t1, 0, 0))
        self._owner = (None, -1)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict()) + "\n")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for k in KERNELS:
        p = f"{KERNEL_PREFIX}{k}."
        units.update({p + "calls_per_op": "calls", p + "ms_per_op": "ms",
                      p + "words_per_key": "words/key", p + "ns_per_word": "ns/word"})
    for d in DRIVERS:
        units.update({f"{d}.self_ms": "ms", f"{d}.passes": "passes",
                      f"{d}.moves_per_key": "moves/key",
                      f"{d}.node_creations_per_key": "nodes/key"})
    units.update({"core.max_depth": "levels", "backend.import_s": "s",
                  "backend.warmup_s": "s", "trace.op_cal_p50": "cal",
                  "trace.op_ms_p50": "ms", "trace.cal_ms_p50": "ms",
                  "ref.npsort_ms_p50": "ms"})
    return units


def layer_values(spans: List[Span], sorts: List[tuple], n_ops: int) -> Dict[str, float]:
    """Kernel and driver metrics from one traced run.

    ``sorts`` holds ``(driver, n_keys, counters)`` for every traced sort
    call.  Rates over words or keys are 0 where a layer was not reached.
    """
    keys = sum(n for _, n, _ in sorts)
    driver_of = {s.id: s.name.split(".")[0] for s in spans if not s.is_kernel}
    k_calls, k_ns, k_words = defaultdict(int), defaultdict(int), defaultdict(int)
    d_ns = defaultdict(int)  # sort-span time minus the kernel spans inside
    for s in spans:
        if not s.is_kernel:
            d_ns[driver_of[s.id]] += s.ns
            continue
        k = s.name[len(KERNEL_PREFIX):]
        k_calls[k] += 1
        k_ns[k] += s.ns
        k_words[k] += s.words
        d_ns[driver_of[s.parent]] -= s.ns
    out = {}
    for k in KERNELS:
        p = f"{KERNEL_PREFIX}{k}."
        out[p + "calls_per_op"] = k_calls[k] / n_ops
        out[p + "ms_per_op"] = k_ns[k] / n_ops / 1e6
        out[p + "words_per_key"] = k_words[k] / keys
        out[p + "ns_per_word"] = k_ns[k] / k_words[k] if k_words[k] else 0.0
    for d in DRIVERS:
        mine = [(n, c) for drv, n, c in sorts if drv == d]
        d_keys = sum(n for n, _ in mine)
        out[f"{d}.self_ms"] = d_ns[d] / n_ops / 1e6
        out[f"{d}.passes"] = sum(c.passes for _, c in mine) / n_ops
        out[f"{d}.moves_per_key"] = sum(c.moves for _, c in mine) / d_keys if d_keys else 0.0
        out[f"{d}.node_creations_per_key"] = (
            sum(c.node_creations for _, c in mine) / d_keys if d_keys else 0.0
        )
    out["core.max_depth"] = max(
        (c.max_depth for d, _, c in sorts if d == "core"), default=0
    )
    return out
