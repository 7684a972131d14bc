"""Algorithm registry and range adapters.

``ALGORITHMS`` maps a stable identifier to a sorter with the uniform
signature ``f(S, cfg=None, counters=None, trace=None) -> OpCounters``,
sorting an ``int64`` array in place.  ``perm_rank`` sorts values by
synthesising an index payload (one extra array — the only registry entry
that allocates linear scratch).

:func:`sort_full_universe` extends any registry sorter from keys in
``[0, 2**(w-1))`` to the full ``w``-bit universe by partitioning on the
top bit and shifting the upper half down while it is sorted.
"""

from typing import Optional

import numpy as np

from .backend import active
from .core import TraceFn, check_array, sort_associative, sort_associative_recursive
from .counters import OpCounters
from .cycle_leader import sort_distinct_keys
from .errors import WordRangeError
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

    Partitions on the top bit (full-word swaps — the input has no tags
    yet), sorts the low half directly, then shifts the high half down by
    ``2**(w-1)``, sorts it, and shifts it back.  Input is refused as by
    :func:`~assocsort.core.check_words`, before any word is written.
    """
    cfg = cfg or WordConfig()
    counters = counters if counters is not None else OpCounters()
    sorter = resolve_algorithm(algo)
    check_array(S)
    n = len(S)
    if n == 0:
        return counters
    k = active()
    mn, mx = k.min_max(S, 0, n)
    limit = 2 ** cfg.w - 1
    if mn < 0 or mx > limit:
        raise WordRangeError(
            f"keys must lie in [0, {limit}], saw [{int(mn)}, {int(mx)}]"
        )
    n_low, moves = k.partition_msb(S, 0, n, cfg.tag_mask)
    counters.moves += int(moves)
    n_low = int(n_low)
    if n_low:
        sorter(S[:n_low], cfg=cfg, counters=counters, trace=trace)
    if n_low < n:
        counters.moves += int(k.add_const(S, n_low, n, -cfg.tag_mask))
        sorter(S[n_low:], cfg=cfg, counters=counters, trace=trace)
        counters.moves += int(k.add_const(S, n_low, n, cfg.tag_mask))
    return counters
