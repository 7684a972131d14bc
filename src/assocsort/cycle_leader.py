"""Sorting distinct keys by chasing displacement cycles, no tag bits.

When keys are known to be distinct, a key's slot inside the practiced
interval identifies it completely, so a word sitting at its own slot *is*
its node — nothing needs to be written down.  One pass swaps every
in-interval key to its slot; the settled keys are then compacted to the
front (already in ascending order) and the pass repeats on the rest with
the interval advanced to the smallest deferred key.

An untraced sort runs every pass in one call of the ``distinct_passes``
pass loop.  A traced sort runs each pass as :func:`_implicit_step`, one
kernel call per phase, so that it can hand the trace a snapshot after
each.  Both make the same checks in the same order and raise the same
error through :func:`_fail`.
"""

from typing import Optional

import numpy as np

from .backend import active
from .core import TraceFn, run_loop, run_passes, stalled
from .counters import OpCounters
from .errors import CorruptStateError, DuplicateKeyError
from .kernels import PHASE_DUPLICATE, PHASE_PARTITION
from .words import WordConfig


def _fail(phase, status, a=0, b=0, c=0, d=0):
    """Raise the error of the failed check ``phase`` of a pass, with the
    numbers that ``distinct_passes`` reports for it."""
    if phase == PHASE_DUPLICATE:
        raise DuplicateKeyError("duplicate key detected while practicing")
    if phase == PHASE_PARTITION:
        raise CorruptStateError(f"settled {a} keys but practicing reported {b}")
    raise stalled(a, b)  # PHASE_PREFIX


def _implicit_step(S, P, head, delta, cfg, counters, emit):
    """One pass over ``S[head:]``: settle, then compact the settled keys.

    Practicing swaps every key of ``[delta, delta + len(S) - head)`` to
    its slot.  Only a word at its own slot can be settled (deferred keys
    fail the slot test everywhere), so compacting the fixpoints to the
    front, in order, never misclassifies.
    """
    k = active()
    n = len(S)
    n_d, dnext, moves, status = k.implicit_practice(S, head, n, delta)
    if status != 0:
        _fail(PHASE_DUPLICATE, status)
    counters.moves += moves
    emit("practice")
    count, moves = k.collect_fixpoints(S, head, n, delta)
    counters.moves += moves
    if count != n_d:
        _fail(PHASE_PARTITION, 0, count, n_d)
    emit("partition")
    return n_d, dnext


def sort_distinct_keys(
    S: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort an array of distinct keys in place; returns operation counters.

    The interval of the first pass starts at the array minimum; every
    later pass starts at the smallest key the previous pass deferred.
    Raises :class:`~assocsort.errors.DuplicateKeyError` on a repeated key.
    """
    if trace is not None:
        return run_passes(_implicit_step, S, cfg, counters, trace)
    return run_loop("distinct_passes", _fail, S, cfg, counters)
