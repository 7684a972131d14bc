"""Kernel backend selection: numba-compiled loops or plain-Python loops.

Every hot loop lives in :mod:`assocsort.kernels` as an ordinary Python
function over numpy arrays.  The ``numba`` backend compiles those
functions with ``@njit``; the ``numpy`` backend runs them as-is (scalar
loops over ``int64`` arrays), which is slow but dependency-light and
bit-for-bit identical in behaviour.

The active backend is chosen, in order of precedence:

1. :func:`set_backend` / :func:`use_backend`,
2. the ``ASSOCSORT_BACKEND`` environment variable (``numba`` or
   ``numpy``), read once at first use,
3. ``numba`` when importable, else ``numpy``.
"""

import os
from contextlib import contextmanager
from types import SimpleNamespace

from . import kernels as _kernels

ENV_VAR = "ASSOCSORT_BACKEND"
BACKENDS = ("numba", "numpy")

_KERNEL_NAMES = (
    "min_max",
    "implicit_practice",
    "collect_fixpoints",
    "practice",
    "store_nodes",
    "partition_values",
    "retrieve_packed",
    "store_records",
    "retrieve_node_scan",
    "practice_super",
    "retrieve_super",
    "practice_rank",
    "accumulate_records",
    "repractice_idle",
    "reactivate",
    "restore_keys",
    "partition_msb",
    "add_const",
    "radix_pass",
)

PLAIN = SimpleNamespace(
    **{name: getattr(_kernels, name) for name in _KERNEL_NAMES}
)

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    numba = None
    HAS_NUMBA = False

_jitted = None
_current = None


def _build_jitted() -> SimpleNamespace:
    global _jitted
    if _jitted is None:
        jit = numba.njit(cache=True, nogil=True)
        _jitted = SimpleNamespace(
            **{name: jit(getattr(_kernels, name)) for name in _KERNEL_NAMES}
        )
    return _jitted


def _resolve_default() -> str:
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if value:
        if value not in BACKENDS:
            raise ValueError(
                f"{ENV_VAR}={value!r}: expected one of {', '.join(BACKENDS)}"
            )
        if value == "numba" and not HAS_NUMBA:
            raise ValueError(f"{ENV_VAR}=numba but numba is not importable")
        return value
    return "numba" if HAS_NUMBA else "numpy"


def current_backend() -> str:
    """Name of the backend that :func:`active` will hand out."""
    global _current
    if _current is None:
        _current = _resolve_default()
    return _current


def set_backend(name: str) -> None:
    """Select the kernel backend for subsequent sorts."""
    global _current
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}: expected one of {BACKENDS}")
    if name == "numba" and not HAS_NUMBA:
        raise ValueError("numba backend requested but numba is not importable")
    _current = name


@contextmanager
def use_backend(name: str):
    """Temporarily select a backend (restores the previous one on exit)."""
    previous = current_backend()
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def active() -> SimpleNamespace:
    """The kernel set of the currently selected backend."""
    if current_backend() == "numba":
        return _build_jitted()
    return PLAIN


def warmup() -> str:
    """Force-compile (or touch) every kernel via a tiny sort of each kind.

    Useful before timing so numba compilation never lands inside a
    measured region.  Returns the active backend name.
    """
    import numpy as np

    from .adapter import ALGORITHMS
    from .words import WordConfig

    cfg = WordConfig(8)
    rng = np.random.default_rng(0)
    for name, sorter in ALGORITHMS.items():
        if name in ("cycle_distinct", "distinct_improved"):
            data = rng.permutation(16).astype(np.int64)
        else:
            data = rng.integers(0, 16, size=16).astype(np.int64)
        sorter(data, cfg=cfg)
    k = active()
    src = np.arange(8, dtype=np.int64)[::-1].copy()
    dst = np.empty_like(src)
    k.radix_pass(src, dst, 8, 0)
    k.partition_msb(src, 0, 8, 4)
    k.add_const(src, 0, 8, 0)
    return current_backend()
