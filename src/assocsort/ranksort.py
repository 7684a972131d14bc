"""Rank sorting of (key, payload) element pairs.

Keys live in one ``int64`` array and payloads in a parallel one;
elements move together, but all node bookkeeping happens in the key
array alone.  Each pass:

1. ``practice`` of count nodes carrying the payloads — the value sorts'
   counting practice, in which the payload of a consumed key waits at its
   node's slot.
2. ``accumulate_records`` — prefix sums turn counts into the index of
   the last slot of each key's sorted run.
3. ``repractice_idle`` — every idle word re-hashes to its node and takes
   the node's current record as a destination ticket, decrementing the
   record; afterwards a node's record is its own destination.
4. ``reactivate`` — a single scan delivers every element: tickets and
   nodes to their slots (nodes chain, moving at most once), deferred
   keys packed right after the sorted prefix.  A placed node's record
   becomes its former slot index.
5. ``restore_keys`` — the sorted prefix is rewritten as keys:
   ``delta + record`` at each node, repeated over its run.

A sort runs every pass in one call of the ``rank_passes`` pass loop
(through ``core.run_loop``, which hands it a traced sort's hook) and
raises a failed check through :func:`_fail`.
"""

from typing import Optional, Tuple

import numpy as np

from .core import TraceFn, run_loop, stalled
from .counters import OpCounters
from .errors import CorruptStateError, InputError
from .kernels import PHASE_ACCUMULATE, PHASE_REACTIVATE, PHASE_RESTORE, PHASE_TICKET
from .words import WordConfig


def _fail(phase, status, a=0, b=0, c=0, d=0):
    """Raise the error of the failed check ``phase`` of a pass, with the
    numbers that ``rank_passes`` reports for it."""
    if phase == PHASE_ACCUMULATE:
        raise CorruptStateError(
            f"accumulation saw {a} nodes/{b} elements, practice reported {c}/{d}"
        )
    if phase == PHASE_TICKET:
        raise CorruptStateError(f"ticketing failed (status {status}, {a} of {b})")
    if phase == PHASE_REACTIVATE:
        raise CorruptStateError(f"reactivation failed (status {status})")
    if phase == PHASE_RESTORE:
        raise CorruptStateError(f"key restoration failed (status {status})")
    raise stalled(a, b)  # PHASE_PREFIX


def sort_by_key(
    K: np.ndarray,
    P: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort keys ``K`` in place, carrying ``P[i]`` with ``K[i]``.

    ``P`` must be a writable ``int64`` array of the same length that
    shares no memory with ``K``.  The sort is not stable: equal keys keep
    their payloads but may exchange relative order.
    """
    cfg = cfg or WordConfig()
    return run_loop("rank_passes", _fail, K, cfg, counters, P, (cfg.tag_mask,), trace=trace)


def argsort_keys(
    keys: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted copy of ``keys`` plus the permutation that produced it.

    Returns ``(sorted_keys, perm)`` with
    ``sorted_keys[i] == keys[perm[i]]``; ``keys`` itself is untouched.
    Refused with :class:`~assocsort.errors.InputError`: anything but a
    1-D array, and keys whose ``int64`` copy would not be exact, that is
    any dtype but a signed or unsigned integer one (floats, which the copy
    would truncate, bools, objects) and unsigned keys past the ``int64``
    range, which it would wrap.
    """
    A = np.asarray(keys)
    if A.ndim != 1:
        raise InputError(f"keys must be a 1-D array, got {A.ndim}-D")
    if A.size and A.dtype.kind not in "iu":
        raise InputError(f"keys must be integers, got dtype {A.dtype}")
    K = A.astype(np.int64)
    if not np.array_equal(K, A):
        raise InputError("keys must fit int64")
    P = np.arange(len(K), dtype=np.int64)
    sort_by_key(K, P, cfg=cfg, counters=counters)
    return K, P
