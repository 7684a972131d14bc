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


def decode_memory(S, lo, n_distinct, eps_used, delta, base, F, b, tag):
    """Decode short-term memory of records of the form ``(F, b)`` into
    sorted ``(key, count)`` pairs, ``count`` one less than the key's
    occurrences.  A count record (``F == 1``) sits in the low ``b`` bits
    below its position, or, for an overfull node, in the node word before
    its position word; a packed record holds ``F`` fields of ``b`` bits,
    field ``f`` the occurrences of key ``delta + (former - base) * F + f``.
    """
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
            former = rec >> (F * b)
            count = rec & ((1 << (F * b)) - 1)
            r += 1
        if F == 1:
            out.append((delta + former - base, count))
            continue
        for f in range(F):
            occurrences = (count >> (f * b)) & ((1 << b) - 1)
            if occurrences:
                out.append((delta + (former - base) * F + f, occurrences - 1))
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


def counting_passes(keys, w, stacked):
    """The passes ``assoc_seq`` (``stacked`` false) or ``assoc_rec`` (true)
    make on ``keys`` at word width ``w``, each as ``(eps, F, reaches)``.

    Each pass starts at the least remaining key ``delta`` over ``seg``
    words.  With ``lg = ceil(log2 seg)`` (at least 1) bits of position and
    ``split = w - 1 - lg`` bits of count, it reserves ``eps = seg //
    (2**split + 1)`` words where ``2 * lg >= w`` (else none), and its
    interval spans ``seg - eps`` keys, unless some key lies that far or
    more past ``delta`` (the pass ``reaches``) and ``F = split // b``, for
    ``b`` the bit length of ``seg - eps``, is at least 2: then it spans
    ``min(F * (seg - eps), 2**(w - 1))`` keys, ``F`` to a node (else ``F``
    is 1).  It settles every remaining key of its interval.  A sequential
    pass leaves the keys it deferred as the next segment; a stacked one
    leaves all but its memory, one word per node and one more per count
    node holding ``2**split`` repeats or more.
    """
    rest = sorted(int(k) for k in keys)
    top = rest[-1] if rest else 0
    seg = len(rest)
    passes = []
    while rest:
        delta = rest[0]
        lg = max(1, (seg - 1).bit_length())
        split = w - 1 - lg
        eps = seg // ((1 << split) + 1) if 2 * lg >= w else 0
        span, F = seg - eps, 1
        reaches = top - delta >= span
        if reaches and split // span.bit_length() >= 2:
            F = split // span.bit_length()
            span = min(F * span, 1 << (w - 1))
        passes.append((eps, F, reaches))
        settled = [k for k in rest if k < delta + span]
        rest = rest[len(settled):]
        if not stacked:
            seg = len(rest)
            continue
        nodes = Counter((k - delta) // F for k in settled)
        overfull = sum(F == 1 and c - 1 >= 1 << split for c in nodes.values())
        seg -= len(nodes) + overfull
    return passes


def counting_pass_count(keys, w, stacked):
    """How many passes :func:`counting_passes` makes."""
    return len(counting_passes(keys, w, stacked))


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
