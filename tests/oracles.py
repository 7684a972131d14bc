"""Independent reference implementations the tests check kernels against.

Everything here is deliberately written the dumb way (dict counting,
python lists, brute-force searches) so it shares no code — and no bugs —
with the package under test.
"""

from bisect import bisect_left
from collections import Counter

import numpy as np


def practice_oracle(values, delta, span):
    """What one counting practice pass must report for ``values``.

    Returns ``(n_distinct, n_companion, n_deferred, delta_next)`` where
    ``delta_next`` is None when nothing lies at or above the interval.
    Values below ``delta`` are ignored (idle leftovers of an outer pass).
    """
    in_iv = [v for v in values if delta <= v < delta + span]
    deferred = [v for v in values if v >= delta + span]
    counts = Counter(in_iv)
    n_d = len(counts)
    n_c = sum(c - 1 for c in counts.values())
    return n_d, n_c, len(deferred), (min(deferred) if deferred else None)


def sorted_runs(values, delta, span):
    """Sorted (key, count) pairs of the in-interval values."""
    counts = Counter(v for v in values if delta <= v < delta + span)
    return sorted(counts.items())


def decode_memory(S, lo, n_distinct, eps_used, delta, base, pack_split, tag):
    """Decode packed short-term memory into sorted (key, count) pairs."""
    out = []
    r = lo
    end = lo + n_distinct + eps_used
    while r < end:
        word = int(S[r])
        assert word & tag, f"memory word at {r} is not a node"
        rec = word & (tag - 1)
        if r + 1 < end and not int(S[r + 1]) & tag:
            count = rec
            former = int(S[r + 1])
            r += 2
        else:
            former = rec >> pack_split
            count = rec & ((1 << pack_split) - 1)
            r += 1
        out.append((delta + former - base, count))
    return sorted(out)


def epsilon_demand(n, w):
    """Most companions any length-``n`` segment can force.

    An overfull node owns at least ``2**pack_split`` occurrences besides
    the one that created it, so at most ``n // (2**pack_split + 1)``
    nodes can be overfull at once.
    """
    lg = 1 if n <= 1 else (n - 1).bit_length()
    split = w - 1 - lg
    return n // ((1 << split) + 1)


def improved_pass_count(keys, w):
    """Passes ``assoc_improved`` takes on ``keys`` at word width ``w``.

    Each pass starts at the least remaining key ``delta`` and settles every
    remaining key of its interval.  Over ``seg`` remaining keys the
    interval spans ``seg`` keys, unless some key lies ``seg`` or more past
    ``delta`` and ``F = (w - 1) // b``, for ``b = seg.bit_length()``, is at
    least 2: then it spans ``min(F * seg, 2**(w - 1))`` keys.
    """
    rest = sorted(int(k) for k in keys)
    passes = 0
    while rest:
        passes += 1
        seg, delta = len(rest), rest[0]
        span = seg
        F = (w - 1) // seg.bit_length()
        if rest[-1] - delta >= seg and F >= 2:
            span = min(F * seg, 1 << (w - 1))
        rest = rest[bisect_left(rest, delta + span):]
    return passes


def super_hash_oracle(key, delta, w):
    d = key - delta
    return d // (w - 1), d % (w - 1)


def rank_destinations(keys, delta):
    """Final slot of every key occurrence plus each distinct key's block.

    Returns ``(starts, ends)`` dicts: sorted-run start and inclusive end
    per distinct key, relative indices.
    """
    counts = Counter(keys)
    starts, ends = {}, {}
    pos = 0
    for k in sorted(counts):
        starts[k] = pos
        pos += counts[k]
        ends[k] = pos - 1
    return starts, ends


def reference_sort(values):
    """Plain python sorted copy as an int64 array."""
    return np.array(sorted(int(v) for v in values), dtype=np.int64)
