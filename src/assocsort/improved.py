"""Improved counting variant: nodes stay put, records park at the front.

The practiced interval of a pass spans the whole live segment (no
``epsilon`` shrink, no companions).  After practicing, records and
positions are never packed together:

* ``store_records`` swaps the k-th node's record into the *value plane*
  of the k-th segment word.  Tag bits do not move, so every node keeps
  marking its position — which is the key it stands for.
* the tail is partitioned on value planes only, gathering idle words
  directly behind the record park;
* ``retrieve_node_scan`` walks tag bits right-to-left, pairs the k-th
  node from the right with the record at index k, clears the tag and
  writes the node's key (masked, preserving remaining tags) over the
  output run.

Because everything after practicing happens in the value planes while
tags pin the nodes, a segment whose keys all lie within ``segment
length`` of the minimum sorts in exactly one pass — in particular any
array with ``max - min < n`` does.

The distinct-keys sibling packs ``w - 1`` keys into each node as a
bitmap, shrinking memory a further ``w - 1``-fold; duplicate keys are
detected (the bit is already set) and rejected.
"""

from typing import Optional

import numpy as np

from .backend import active
from .core import TraceFn, run_passes
from .counters import OpCounters
from .errors import CorruptStateError, DuplicateKeyError
from .words import WordConfig


def _park_and_partition(S, head, n_d, n_c, pivot, cfg, counters, emit):
    """Park the k-th node's record in the value plane of ``S[head + k]``,
    then gather the idle value planes (``<= pivot``) right behind them."""
    k = active()
    n = len(S)
    stored, moves, status = k.store_records(S, head, n, n_d, cfg.tag_mask)
    counters.moves += moves
    if status != 0:
        raise CorruptStateError(
            f"found {stored} tagged words while parking {n_d} records"
        )
    emit("store")
    n_low, moves = k.partition_values(S, head + n_d, n, pivot, cfg.tag_mask)
    counters.moves += moves
    if n_low != n_c:
        raise CorruptStateError(f"{n_low} idle words in the tail, expected {n_c}")
    emit("partition")


def _node_scan_step(S, P, head, delta, cfg, counters, emit):
    """One pass over ``S[head:]`` whose interval spans the whole segment."""
    k = active()
    n = len(S)
    n_d, n_c, _, dnext, moves, created = k.practice(
        S, head, n, delta, 0, n - head, cfg.tag_mask
    )
    counters.moves += moves
    counters.node_creations += created
    emit("practice")
    _park_and_partition(S, head, n_d, n_c, delta + n - head - 1, cfg, counters, emit)
    moves, status = k.retrieve_node_scan(S, head, n, n_d, n_c, delta, cfg.tag_mask)
    counters.moves += moves
    if status != 0:
        raise CorruptStateError(f"node-scan retrieval failed (status {status})")
    emit("retrieve")
    return n_d + n_c, dnext


def _bitmap_step(S, P, head, delta, cfg, counters, emit):
    """One pass over ``S[head:]`` recording ``w - 1`` keys per node.

    The interval covers ``(w - 1)`` keys per segment word, clamped to
    the node slots of the word model.
    """
    k = active()
    n = len(S)
    wm1 = cfg.w - 1
    span = min(wm1 * (n - head), cfg.tag_mask)
    n_d, n_c, _, dnext, moves, created, dup = k.practice_super(
        S, head, n, delta, span, wm1, cfg.tag_mask
    )
    counters.moves += moves
    counters.node_creations += created
    if dup >= 0:
        raise DuplicateKeyError(f"key {int(dup)} occurs more than once")
    emit("practice")
    pivot = min(delta + span - 1, cfg.max_key)
    _park_and_partition(S, head, n_d, n_c, pivot, cfg, counters, emit)
    moves, status = k.retrieve_super(
        S, head, n, n_d, n_c, delta, wm1, cfg.tag_mask
    )
    counters.moves += moves
    if status != 0:
        raise CorruptStateError(f"bitmap retrieval failed (status {status})")
    emit("retrieve")
    return n_d + n_c, dnext


def sort_improved(
    S: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort ``S`` in place; a single pass whenever ``max - min < n``."""
    return run_passes(_node_scan_step, S, cfg, counters, trace)


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
    return run_passes(_bitmap_step, S, cfg, counters, trace)
