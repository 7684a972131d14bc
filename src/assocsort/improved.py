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
fields fit a record (``kernels.pass_interval``): in the *wide* form, ``F
= (w - 1) // b`` counters of ``b = seg.bit_length()`` bits a node, which
no count overflows, each counting one key's occurrences, so that its
interval covers ``F`` keys per segment word; so any array whose keys fit
within ``F * n`` of the minimum sorts in one pass too.  The dense pass
packs as well: its nodes then fill only the first ``1/F`` of the segment,
which shortens the chase of practice and leaves the rest of the segment
idle.

A pass that the wide form leaves short of the keys' maximum follows their
density instead: it takes the narrowest fields, from 2 bits up, that few
keys are expected to fill at the mean density ``seg / (max - delta)``
(``kernels.narrow_bits``), as many as fit beside the index of the field
that made the node: 28 fields of 2 bits at w = 63, which cover 28 keys a
segment word.  A key that finds its field full is deferred and the
interval ends before its node; ``unpractice`` turns the nodes from there
up back into the keys that made them, so the pass stores, partitions and
retrieves exactly the keys below, and every later pass takes one bit
more.  Where the full field's node is the pass's first, the pass
practices its segment again in the wide form, so that every pass still
settles its least key.

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


# The ``improved_passes`` arguments after the segment: the keys' bounds,
# the node form ``(F, b)`` of count nodes (packed per pass) or of bitmaps
# of ``w - 1`` keys, and the tag.
_count = lambda bounds, cfg: (*bounds, 1, cfg.w - 1, cfg.tag_mask)
_bitmap = lambda bounds, cfg: (*bounds, cfg.w - 1, 1, cfg.tag_mask)


def sort_improved(
    S: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort ``S`` in place; a single pass whenever ``max - min < n``, and
    whenever the keys fit ``F * n`` (see :mod:`assocsort.improved`)."""
    return run_loop("improved_passes", _fail, S, cfg, counters, args=_count, trace=trace)


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
    return run_loop("improved_passes", _fail, S, cfg, counters, args=_bitmap, trace=trace)
