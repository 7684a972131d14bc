"""Kernel backend selection: C-compiled or plain-Python loops.

Every hot loop lives in :mod:`assocsort.kernels` as an ordinary Python
function over numpy arrays.  The ``c`` backend calls their C twins in
``kernels.c``, built by the system compiler and loaded through cffi (see
:mod:`assocsort.ckernels`); the ``numpy`` backend runs them
as-is (scalar loops over ``int64`` arrays), which is slow but needs
nothing else.  Both write the same words and return the same values.

A sort, traced or not, runs the pass loop of its backend (see
:func:`active_loops`); a traced one passes the loop a hook that it calls
after each phase.

The active backend is chosen, in order of precedence:

1. :func:`set_backend` / :func:`use_backend`, which select it for the
   current thread (more exactly, the current :mod:`contextvars` context,
   so an asyncio task has its own too),
2. the ``ASSOCSORT_BACKEND`` environment variable (``c`` or ``numpy``),
   read once at first use,
3. the first of ``c`` and ``numpy`` that is :func:`available`.

A thread that selects none runs the default of 2 and 3, whatever other
threads select.
"""

import os
from contextlib import contextmanager
from contextvars import ContextVar
from types import SimpleNamespace

from . import kernels as _kernels
from .ckernels import SIGNATURES, BuildError
from .ckernels import load as _load_c

ENV_VAR = "ASSOCSORT_BACKEND"
BACKENDS = ("c", "numpy")

# Pass loops are compiled with the kernels but kept off their namespace:
# a loop runs a driver's passes and calls the kernels directly, so it is
# driver work done in compiled code.  Whatever wraps every kernel of
# :func:`active` (a tracer, a counter) then sees only per-word kernels,
# and never one kernel call inside another.
_LOOP_NAMES = (
    "improved_passes",
    "distinct_passes",
    "sequential_passes",
    "stacked_passes",
    "rank_passes",
)
_KERNEL_NAMES = tuple(name for name in SIGNATURES if name not in _LOOP_NAMES)

PLAIN = SimpleNamespace(
    **{name: getattr(_kernels, name) for name in _KERNEL_NAMES}
)
PLAIN_LOOPS = SimpleNamespace(
    **{name: getattr(_kernels, name) for name in _LOOP_NAMES}
)

_loaded = {"numpy": PLAIN}  # kernel namespaces built so far, by backend
_loops = {"numpy": PLAIN_LOOPS}  # their pass-loop namespaces
_missing = {}  # why a backend cannot run here, by backend
_default = None  # the backend of a context that selected none, once resolved
_selected = ContextVar("assocsort_backend", default=None)


def _build_c() -> tuple:
    """``(kernels, loops)`` of the ``c`` backend, as two namespaces."""
    every = vars(_load_c())
    return (SimpleNamespace(**{k: every[k] for k in _KERNEL_NAMES}),
            SimpleNamespace(**{k: every[k] for k in _LOOP_NAMES}))


def available(name: str) -> bool:
    """Whether backend ``name`` can run here.

    The first ask builds its kernels (``c`` compiles on a cache miss); the
    answer, and the reason for a no, are kept for the process.
    """
    if name == "c" and name not in _loaded and name not in _missing:
        try:
            _loaded[name], _loops[name] = _build_c()
        except BuildError as exc:
            _missing[name] = str(exc)
    return name in _loaded


def _check(name: str, source: str) -> str:
    if name not in BACKENDS:
        raise ValueError(f"{source}{name!r}: expected one of {', '.join(BACKENDS)}")
    if not available(name):
        raise ValueError(f"{source}{name!r}: the {name} backend cannot run here "
                         f"({_missing[name]})")
    return name


def _resolve_default() -> str:
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if value:
        return _check(value, f"{ENV_VAR}=")
    return next(name for name in BACKENDS if available(name))


def current_backend() -> str:
    """Name of the backend that :func:`active` will hand out here."""
    global _default
    name = _selected.get()
    if name is None:
        if _default is None:
            _default = _resolve_default()
        name = _default
    return name


def set_backend(name: str) -> None:
    """Select the kernel backend for subsequent sorts in this context."""
    _selected.set(_check(name, "backend "))


@contextmanager
def use_backend(name: str):
    """Select a backend in this context until the block exits, then
    restore the selection before it."""
    token = _selected.set(_check(name, "backend "))
    try:
        yield
    finally:
        _selected.reset(token)


def active() -> SimpleNamespace:
    """The kernel set of the currently selected backend."""
    return _loaded[current_backend()]


def active_loops() -> SimpleNamespace:
    """The pass loops of the currently selected backend."""
    return _loops[current_backend()]


def warmup() -> str:
    """Touch every pass loop of the active backend, and every kernel that
    sorts and baselines call through :func:`active`, once: a 16-word sort
    of each kind, untraced and traced (which runs the loop's hook path),
    a 16-word ``sort_full_universe`` (``min_max`` and
    ``partition_values``) and the radix baseline's ``radix_pass``.

    Useful before timing, so that a first C build never lands inside a
    measured region.  The inputs are fixed arrays
    (no random generator, whose import alone costs more than the rest).
    Returns the active backend name.
    """
    import numpy as np

    from .adapter import ALGORITHMS, sort_full_universe
    from .words import WordConfig

    cfg = WordConfig(8)
    ramp = np.arange(16, dtype=np.int64)
    repeats = ramp[::-1] % 11  # five keys twice, six once, descending
    shuffled = ramp * 5 % 16  # a permutation of 0..15
    quiet = lambda phase, passes, snapshot: None
    for name, sorter in ALGORITHMS.items():
        distinct = name in ("cycle_distinct", "distinct_improved")
        for trace in (None, quiet):
            sorter((shuffled if distinct else repeats).copy(), cfg=cfg, trace=trace)
    sort_full_universe(shuffled * 16, cfg=cfg)
    active().radix_pass(ramp[::-1].copy(), np.empty_like(ramp), 16, 0)
    return current_backend()
