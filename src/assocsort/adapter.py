"""Algorithm registry and range adapters.

``ALGORITHMS`` maps a stable identifier to a sorter with the uniform
signature ``f(S, cfg=None, counters=None, trace=None) -> OpCounters``,
sorting an ``int64`` array in place.  ``perm_rank`` sorts values by
synthesising an index payload (one extra array — the only registry entry
that allocates linear scratch).

:func:`sort_full_universe` extends any registry sorter from keys in
``[0, 2**(w-1))`` to the full ``w``-bit universe by partitioning on the
top bit and shifting the upper half down while it is sorted.  It enters
through the same front door as every sorter, so it takes at most
``2**(w-1)`` keys and refuses invalid input before any word is written.
"""

from typing import Optional

import numpy as np

from .backend import active
from .core import TraceFn, check_words, sort_associative, sort_associative_recursive
from .counters import OpCounters
from .cycle_leader import sort_distinct_keys
from .errors import DuplicateKeyError
from .improved import sort_distinct_improved, sort_improved
from .ranksort import sort_by_key
from .words import WordConfig


def perm_rank_words(
    S: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Value-only facade over the rank sorter (allocates an index payload)."""
    payload = np.arange(len(S), dtype=np.int64)
    return sort_by_key(S, payload, cfg=cfg, counters=counters, trace=trace)


ALGORITHMS = {
    "cycle_distinct": sort_distinct_keys,
    "assoc_seq": sort_associative,
    "assoc_rec": sort_associative_recursive,
    "assoc_improved": sort_improved,
    "distinct_improved": sort_distinct_improved,
    "perm_rank": perm_rank_words,
}


def resolve_algorithm(name: str):
    try:
        return ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ValueError(f"unknown algorithm {name!r}: expected one of {known}")


def sort_full_universe(
    S: np.ndarray,
    algo: str = "assoc_improved",
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort keys spanning all ``w`` bits with a ``w - 1``-bit sorter.

    Partitions on the top bit (``partition_values`` with tag 0, so its
    value plane is the whole word: the input has no tags yet), sorts the
    low half directly, then shifts the high half down by ``2**(w-1)``,
    sorts it, and shifts it back.  Input is refused as by
    :func:`~assocsort.core.check_words`, keys in ``[0, 2**w - 1]``, before
    any word is written.  A repeated key of the upper half is reported as
    the input held it.
    """
    cfg = cfg or WordConfig()
    counters = counters if counters is not None else OpCounters()
    sorter = resolve_algorithm(algo)
    if check_words(S, cfg, max_key=2 * cfg.tag_mask - 1) is None:
        return counters
    n_low, moves = active().partition_values(S, 0, len(S), cfg.value_mask, 0)
    counters.moves += moves
    low, high = S[:n_low], S[n_low:]
    sorter(low, cfg=cfg, counters=counters, trace=trace)
    high -= cfg.tag_mask
    counters.moves += len(high)
    try:
        sorter(high, cfg=cfg, counters=counters, trace=trace)
    except DuplicateKeyError as exc:
        if exc.key is None:
            raise
        key = exc.key + cfg.tag_mask
        raise DuplicateKeyError(f"key {key} occurs more than once", key=key) from None
    high += cfg.tag_mask
    counters.moves += len(high)
    return counters
