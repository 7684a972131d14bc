"""Algorithm registry.

``ALGORITHMS`` maps a stable identifier to a sorter with the uniform
signature ``f(S, cfg=None, counters=None, trace=None) -> OpCounters``,
sorting an ``int64`` array of any keys in place (through
``core.by_range``, which shifts or splits keys outside ``[0,
2**(w-1))``).  ``perm_rank`` sorts values by synthesising an index
payload (one extra array — the only registry entry that allocates linear
scratch).
"""

from typing import Optional

import numpy as np

from .core import TraceFn, check_array, sort_associative, sort_associative_recursive
from .counters import OpCounters
from .cycle_leader import sort_distinct_keys
from .errors import InputError
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
    check_array(S)
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
        raise InputError(f"unknown algorithm {name!r}: expected one of {known}")
