"""Sorting distinct keys by chasing displacement cycles, no tag bits.

When keys are known to be distinct, a key's slot inside the practiced
interval identifies it completely, so a word sitting at its own slot *is*
its node — nothing needs to be written down.  One pass swaps every
in-interval key to its slot; the settled keys are then compacted to the
front (already in ascending order) and the pass repeats on the rest with
the interval advanced to the smallest deferred key.

A sort runs every pass in one call of the ``distinct_passes`` pass loop
(through ``core.run_loop``, which hands it a traced sort's hook) and
raises a failed check through :func:`_fail`.  Only a word at its own
slot can be settled (deferred keys fail the slot test everywhere),
so compacting the fixpoints to the front, in order, never misclassifies.
"""

from typing import Optional

import numpy as np

from .core import TraceFn, run_loop, stalled
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
    return run_loop("distinct_passes", _fail, S, cfg, counters, trace=trace)
