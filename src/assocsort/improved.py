"""Improved counting variant: nodes stay put, records park at the front.

The practiced interval of a pass spans the whole live segment (no
``epsilon`` shrink, no companions).  After practicing, records and
positions are never packed together:

* ``store_records`` swaps the k-th node's record into the *value plane*
  of the k-th segment word.  Tag bits do not move, so every node keeps
  marking its position — which is the key it stands for.
* the tail is partitioned on value planes only, gathering idle words
  directly behind the record park;
* ``retrieve_scan`` walks tag bits right-to-left, pairs the k-th
  node from the right with the record at index k, clears the tag and
  writes the node's keys (masked, preserving remaining tags) over the
  output run.

Because everything after practicing happens in the value planes while
tags pin the nodes, a segment whose keys all lie within ``segment
length`` of the minimum sorts in exactly one pass — in particular any
array with ``max - min < n`` does.  Every pass packs its nodes where two
fields fit a record (``kernels.pass_interval``): ``F = (w - 1) // b``
counters of ``b = seg.bit_length()`` bits a node, each counting one key's
occurrences, so that its interval covers ``F`` keys per segment word; so
any array whose keys fit within ``F * n`` of the minimum sorts in one pass
too.  The dense pass packs as well: its nodes then fill only the first
``1/F`` of the segment, which shortens the chase of practice and leaves
the rest of the segment idle.

The distinct-keys sibling packs ``w - 1`` keys into each node as a
bitmap, shrinking memory a further ``w - 1``-fold; duplicate keys are
detected (the bit is already set) and rejected.  It runs the same
kernels: ``practice`` and ``retrieve_scan`` take the node form ``(F,
b)``, ``(1, w - 1)`` for a count, ``(w - 1, 1)`` for a bitmap and ``F``
fields of ``b`` bits for packed counters.

A sort runs every pass in one call of the ``improved_passes`` pass loop
(through ``core.run_loop``, which hands it a traced sort's hook) and
raises a failed check through :func:`_fail`.  The loop, which knows the
keys' maximum from the front door, practices a *dense-last* pass
(``kernels.dense_last``: one of count or packed nodes that defers
nothing, over a segment too large for L1 whose keys span most of it) with
16 interleaved cursors, so that the cache misses of their chases overlap.
That order changes neither the counters nor the sorted words, only where
idle words sit until retrieval rewrites them.
"""

from typing import Optional

import numpy as np

from .core import TraceFn, run_loop, stalled
from .counters import OpCounters
from .errors import CorruptStateError, DuplicateKeyError
from .kernels import PHASE_DUPLICATE, PHASE_PARTITION, PHASE_RETRIEVE, PHASE_STORE
from .words import WordConfig


def _form(F, b):
    """The name of the node form ``(F, b)`` (see ``kernels.practice``)."""
    if F == 1:
        return "count"
    return "bitmap" if b == 1 else f"packed {F}x{b}"


def _fail(phase, status, a, b):
    """Raise the error of the failed check ``phase`` of a pass, with the
    numbers ``a`` and ``b`` that ``improved_passes`` reports for it."""
    if phase == PHASE_DUPLICATE:
        raise DuplicateKeyError(f"key {int(a)} occurs more than once", key=int(a))
    if phase == PHASE_STORE:
        raise CorruptStateError(f"found {a} tagged words while parking {b} records")
    if phase == PHASE_PARTITION:
        raise CorruptStateError(f"{a} idle words in the tail, expected {b}")
    if phase == PHASE_RETRIEVE:
        raise CorruptStateError(f"{_form(a, b)} retrieval failed (F={a}, b={b}, status {status})")
    raise stalled(a, b)  # PHASE_PREFIX


def _sort(bitmap, S, cfg, counters, trace):
    """Sort ``S`` in one ``improved_passes`` call, of bitmap nodes of
    ``w - 1`` keys if ``bitmap``, else of count nodes (packed per pass)."""
    cfg = cfg or WordConfig()
    form = (cfg.w - 1, 1) if bitmap else (1, cfg.w - 1)
    return run_loop("improved_passes", _fail, S, cfg, counters,
                    args=(*form, cfg.tag_mask), top=True, trace=trace)


def sort_improved(
    S: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort ``S`` in place; a single pass whenever ``max - min < n``, and
    whenever the keys fit ``F * n`` (see :mod:`assocsort.improved`)."""
    return _sort(False, S, cfg, counters, trace)


def sort_distinct_improved(
    S: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort distinct keys in place, ``w - 1`` keys recorded per node.

    A single pass covers any input whose keys fit within
    ``(w - 1) * n`` of the minimum.  Raises
    :class:`~assocsort.errors.DuplicateKeyError` on a repeated key.
    """
    return _sort(True, S, cfg, counters, trace)
