"""In-place associative sorting of bounded integers.

Sorts ``numpy.int64`` arrays in place, in linear time in the number of
keys plus the width of their range, using no allocation proportional to
the input: the array's own words are turned into temporary *nodes* that
count key occurrences, then expanded back into sorted keys.

Hot loops run as C built by the system compiler and loaded through cffi.
Set ``ASSOCSORT_BACKEND`` to ``c`` or ``numpy`` (or call
:func:`set_backend`) to choose; ``numpy`` runs the identical loops as
plain Python over numpy arrays.

>>> import numpy as np, assocsort
>>> a = np.array([3, 1, 4, 1, 5], dtype=np.int64)
>>> assocsort.sort(a).passes
1
>>> a
array([1, 1, 3, 4, 5])
"""

from typing import Optional

import numpy as np

from .adapter import ALGORITHMS, perm_rank_words, resolve_algorithm
from .backend import current_backend, set_backend, use_backend, warmup
from .counters import OpCounters
from .core import sort_associative, sort_associative_recursive
from .cycle_leader import sort_distinct_keys
from .errors import (
    AssocSortError,
    CorruptStateError,
    DuplicateKeyError,
    InputError,
    VerificationError,
    WordRangeError,
)
from .improved import sort_distinct_improved, sort_improved
from .ranksort import argsort_keys, sort_by_key
from .words import WordConfig

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AssocSortError",
    "CorruptStateError",
    "DuplicateKeyError",
    "InputError",
    "OpCounters",
    "VerificationError",
    "WordConfig",
    "WordRangeError",
    "argsort_keys",
    "current_backend",
    "perm_rank_words",
    "resolve_algorithm",
    "set_backend",
    "sort",
    "sort_associative",
    "sort_associative_recursive",
    "sort_by_key",
    "sort_distinct_improved",
    "sort_distinct_keys",
    "sort_improved",
    "use_backend",
    "warmup",
]


def sort(
    S: np.ndarray,
    algo: str = "assoc_improved",
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
) -> OpCounters:
    """Sort an ``int64`` array in place with the named algorithm."""
    return resolve_algorithm(algo)(S, cfg=cfg, counters=counters)
