"""Hot loops shared by every sorting variant.

Each function is a straight-line scalar loop over an ``int64`` array with
explicit ``lo``/``hi`` bounds, so callers never materialise views.
``kernels.c`` has their C twins for the ``c`` backend; the functions here
run as they are on the ``numpy`` backend.  Both produce identical arrays
and counter values.

The five *pass loops* (``improved_passes``, ``sequential_passes``,
``stacked_passes``, ``distinct_passes`` and ``rank_passes``) run every
pass of a sort in one call.  Each takes a last argument ``emit``:
``None`` for an untraced sort, or a hook that the loop calls as
``emit(step, pass)`` after each phase's check passed, ``step`` indexing
:data:`STEPS`.  The C loops take the same hook, so a traced sort runs the
same program as an untraced one on either backend.

Conventions
-----------
* ``tag`` is the node tag bit (``1 << (w - 1)``); ``tag - 1`` masks the
  key/record bits.
* Former positions held in records are relative to ``lo``.
* Kernels return plain tuples of integers.  Where a ``status`` element is
  present, 0 means success and the negative ``STATUS_*`` codes below
  describe the invariant that failed; kernels never raise.
* ``moves`` counts words written to the array (a swap is two moves);
  record updates in place do not count.
"""

from itertools import repeat

import numpy as np

STATUS_OK = 0
# A companion was needed but the interval shrink budget was exhausted,
# or the storage write cursor had no room for the companion pair.
STATUS_OVERFULL = -1
# No idle word could be found to sacrifice for a companion, or the
# short-term memory was malformed during retrieval.
STATUS_NO_IDLE = -2
# A retrieval write would have clobbered unread state.
STATUS_COLLISION = -3
# The number of tagged words did not match the practice summary.
STATUS_TAG_SCAN = -4
# A practiced word's hash slot did not hold a node.
STATUS_BAD_HASH = -5
# An untagged word appeared before the first node of a sorted prefix.
STATUS_BAD_PREFIX = -6
# The scan cursor overtook the pack cursor, or keys were not a permutation
# of the claimed interval.
STATUS_CURSOR = -7
# A ticket or node record names a slot outside the segment, or more words
# were placed than the segment has slots (two words claim one slot); or a
# stacked level names memory outside the unwritten part of its segment, or
# a segment or key wider than the word.
STATUS_BAD_SLOT = -8

# Which check of a pass loop failed; 0 when none did.  A loop stops at the
# first failed check and reports its ``PHASE_*`` with the numbers the
# driver's error message needs; each loop's docstring names them.
PHASE_OK = 0
# Practice met a key twice.
PHASE_DUPLICATE = 1
# Storage kept other than one memory word per practiced node (and companion).
PHASE_STORE = 2
# The partition gathered other than the expected number of words.
PHASE_PARTITION = 3
# Retrieval failed, or wrote other than the practiced number of keys.
PHASE_RETRIEVE = 4
# The sorted prefix stopped at ``a`` of ``b``: a pass deferred nothing or
# settled nothing.
PHASE_PREFIX = 5
# The unwind of stacked memories failed a level, or left words unwritten.
PHASE_UNWIND = 6
# Rank accumulation disagreed with practice.
PHASE_ACCUMULATE = 7
# Rank ticketing failed.
PHASE_TICKET = 8
# Rank reactivation failed.
PHASE_REACTIVATE = 9
# Rank key restoration failed.
PHASE_RESTORE = 10


# A pass loop calls its hook as ``emit(step, pass)`` after the phase
# ``STEPS[step]`` of pass ``pass`` (in :func:`stacked_passes`, of the level,
# which is the pass that practiced it); ``kernels.c`` numbers them alike.
STEPS = ("practice", "store", "partition", "retrieve", "accumulate", "repractice",
         "reactivate", "restore")
(STEP_PRACTICE, STEP_STORE, STEP_PARTITION, STEP_RETRIEVE, STEP_ACCUMULATE,
 STEP_REPRACTICE, STEP_REACTIVATE, STEP_RESTORE) = range(len(STEPS))


def _untraced(step, passes):
    """The hook a pass loop calls in place of ``emit=None``: nothing."""


def min_max(S, lo, hi):
    """Smallest and largest word in ``S[lo:hi]`` (caller ensures non-empty)."""
    mn = S[lo]
    mx = S[lo]
    for i in range(lo + 1, hi):
        v = S[i]
        if v < mn:
            mn = v
        if v > mx:
            mx = v
    return mn, mx


def implicit_practice(S, lo, hi, delta):
    """One practicing pass for distinct keys, nodes implied by position.

    A key inside the interval [delta, delta + hi - lo) is swapped toward
    its slot until the scan position holds a settled key; each placement
    counts one distinct key.  Returns
    ``(n_distinct, delta_next, moves, status)`` with ``delta_next = -1``
    when every word was practiced.
    """
    n = hi - lo
    n_d = 0
    dnext = -1
    moves = 0
    i = lo
    while i < hi:
        v = S[i]
        d = v - delta
        if d < 0 or d >= n:
            if dnext < 0 or v < dnext:
                dnext = v
            i += 1
        elif d == i - lo:
            n_d += 1
            i += 1
        else:
            # A second copy of a settled key would swap forever.
            if moves > 2 * n:
                return n_d, dnext, moves, STATUS_CURSOR
            j = lo + d
            S[i] = S[j]
            S[j] = v
            moves += 2
            # Keys placed behind the scan are never examined again; keys
            # placed ahead of it are counted when the scan finds them
            # settled, so counting both here would double-count.
            if j < i:
                n_d += 1
    return n_d, dnext, moves, STATUS_OK


def collect_fixpoints(S, lo, hi, delta):
    """Compact words sitting at their own slot to the front, in order.

    Displaced words are unpracticed (their slot test can never pass), so
    a plain stable two-finger sweep is safe.  Returns ``(count, moves)``.
    """
    wr = lo
    moves = 0
    for i in range(lo, hi):
        if S[i] - delta == i - lo:
            if wr != i:
                t = S[wr]
                S[wr] = S[i]
                S[i] = t
                moves += 2
            wr += 1
    return wr - lo, moves


def distinct_passes(S, head, hi, delta, emit=None):
    """Every pass of a cycle-leader sort of distinct keys ``S[head:hi]``,
    from interval start ``delta`` (the segment's minimum).

    A pass is :func:`implicit_practice` ("practice") then
    :func:`collect_fixpoints` ("partition"); a change to it is made to the
    C loop too.  Returns ``(passes, moves, node_creations, head, phase,
    status, a, b, c, d)`` (no pass creates a node): ``PHASE_DUPLICATE``
    with practice's ``status``, whose moves are not counted;
    ``PHASE_PARTITION`` when ``a`` keys settled where practice reported
    ``b``; ``PHASE_PREFIX`` as in :func:`improved_passes`.
    """
    if emit is None:
        emit = _untraced
    passes = 0
    moves = 0
    while head < hi:
        passes += 1
        n_d, dnext, mv, status = implicit_practice(S, head, hi, delta)
        if status != STATUS_OK:
            return passes, moves, 0, head, PHASE_DUPLICATE, status, 0, 0, 0, 0
        moves += mv
        emit(STEP_PRACTICE, passes)
        count, mv = collect_fixpoints(S, head, hi, delta)
        moves += mv
        if count != n_d:
            return passes, moves, 0, head, PHASE_PARTITION, 0, count, n_d, 0, 0
        emit(STEP_PARTITION, passes)
        head += n_d
        if head != hi and (dnext < 0 or n_d == 0):
            return passes, moves, 0, head, PHASE_PREFIX, 0, head, hi, 0, 0
        delta = dnext
    return passes, moves, 0, head, PHASE_OK, STATUS_OK, 0, 0, 0, 0


def practice(S, lo, hi, delta, base, span, F, b, tag, *, P=None):
    """One practice pass over ``S[lo:hi]``.

    Keys in [delta, delta + span) hash to nodes of the form ``(F, b)``
    from slot ``lo + base``: key ``delta + d`` is field ``d % F``, of
    ``b`` bits, of slot ``lo + base + d // F``.  With ``F == 1`` a node
    counts one key, and repeats bump its record (a *count*).  With ``b ==
    1`` (and ``F != 1``) a node is a *bitmap* of ``F`` keys, and a repeated
    key stops the pass.  Otherwise a node is *packed*: each field counts
    its key's occurrences.  The first key of a slot turns it into a node,
    displacing the slot's word to the scan position.  Words at or above
    the interval are deferred; words below ``delta`` are idle leftovers of
    an enclosing pass and are skipped.

    ``P``, ``None`` or the payloads of a rank pass (an array parallel to
    ``S``), makes elements move as (key, payload) pairs: where a key makes
    its node, the payloads of its position and of the node's slot swap, so
    the payload of a key consumed into a node waits at the node's slot,
    and the step counts 3 moves.  Every other result is that of the same
    call without ``P``.  ``P`` is keyword-only, so the ``c`` backend's
    ``practice`` takes no payload; its payload form is
    :func:`practice_rank`.

    Returns ``(n_distinct, n_companion, n_deferred, delta_next, moves,
    created, dup)``: ``n_companion`` counts keys folded into an existing
    node, ``delta_next = -1`` when nothing was deferred, and ``dup`` is
    the repeated key, or -1.
    """
    bitmap = F != 1 and b == 1
    n_d = 0
    n_c = 0
    n_def = 0
    dnext = -1
    moves = 0
    created = 0
    i = lo
    while i < hi:
        v = S[i]
        if v & tag:
            i += 1
            continue
        d = v - delta
        if d < 0:
            i += 1
            continue
        if d >= span:
            n_def += 1
            if dnext < 0 or v < dnext:
                dnext = v
            i += 1
            continue
        j = lo + base + d // F
        one = 1 << (d % F * b)
        t = S[j]
        if t & tag:
            if bitmap and t & one:
                return n_d, n_c, n_def, dnext, moves, created, v
            S[j] = t + one
            n_c += 1
            i += 1
        else:
            S[i] = t
            S[j] = tag | one if F != 1 else tag
            moves += 1
            if P is not None:
                pp = P[i]
                P[i] = P[j]
                P[j] = pp
                moves += 2
            created += 1
            n_d += 1
            # The displaced word is re-examined unless it came from the
            # already-scanned prefix, where it was counted before.
            if j < i:
                i += 1
    return n_d, n_c, n_def, dnext, moves, created, -1


def store_nodes(S, lo, hi, delta, span, pack_split, tag, eps_budget):
    """Compact tagged nodes into short-term memory at ``S[lo:]``.

    A node whose count fits below ``1 << pack_split`` packs position and
    count into one record.  An overfull node takes two memory words —
    record then position — paid for by destroying one idle word (a word
    whose value lies in the practiced interval); at most ``eps_budget``
    nodes may be overfull.  Displaced non-node words are preserved.

    Returns ``(eps_used, stored, moves, status)`` where ``stored`` is the
    memory length in words.
    """
    thr = 1 << pack_split
    vmask = tag - 1
    wr = lo
    eps_used = 0
    moves = 0
    for i in range(lo, hi):
        x = S[i]
        if not x & tag:
            continue
        cnt = x & vmask
        fp = i - lo
        if cnt < thr:
            packed = tag | (fp << pack_split) | cnt
            if wr != i:
                S[i] = S[wr]
                moves += 1
            S[wr] = packed
            moves += 1
            wr += 1
            continue
        eps_used += 1
        if eps_used > eps_budget:
            return eps_used, wr - lo, moves, STATUS_OVERFULL
        if wr >= i:
            return eps_used, wr - lo, moves, STATUS_OVERFULL
        # Find an idle word to sacrifice for the companion slot.
        q = wr
        while q < hi:
            y = S[q]
            if not y & tag:
                dq = y - delta
                if 0 <= dq < span:
                    break
            q += 1
        if q == hi:
            return eps_used, wr - lo, moves, STATUS_NO_IDLE
        node = tag | cnt
        if q == wr:
            if wr + 1 == i:
                S[wr] = node
                S[i] = fp
                moves += 2
            else:
                S[i] = S[wr + 1]
                S[wr] = node
                S[wr + 1] = fp
                moves += 3
        elif q == wr + 1:
            S[i] = S[wr]
            S[wr] = node
            S[wr + 1] = fp
            moves += 3
        else:
            if wr + 1 == i:
                S[q] = S[wr]
                S[wr] = node
                S[i] = fp
                moves += 3
            else:
                S[q] = S[wr + 1]
                S[i] = S[wr]
                S[wr] = node
                S[wr + 1] = fp
                moves += 4
        wr += 2
    return eps_used, wr - lo, moves, STATUS_OK


def partition_values(S, lo, hi, pivot, tag):
    """Two-finger partition of the value planes of ``S[lo:hi]``.

    Words whose low ``w - 1`` bits are <= ``pivot`` move to the front.
    Tag bits stay where they are; only value planes swap.  Returns
    ``(n_low, moves)``.
    """
    vmask = tag - 1
    l = lo
    r = hi - 1
    moves = 0
    while l <= r:
        a = S[l] & vmask
        if a <= pivot:
            l += 1
            continue
        b = S[r] & vmask
        if b > pivot:
            r -= 1
            continue
        S[l] = (S[l] & tag) | b
        S[r] = (S[r] & tag) | a
        moves += 2
        l += 1
        r -= 1
    return l - lo, moves


def retrieve_packed(S, lo, mem_hi, write_end, delta, base, F, b, tag):
    """Expand short-term memory ``S[lo:mem_hi]`` into sorted keys.

    Memory is read right-to-left: a tagged word packs a position ``fp``
    above a record of the form ``(F, b)`` (see :func:`practice`) in its
    low ``F * b`` bits; an untagged word is an overfull node's position and
    the tagged word before it holds the record.  A record writes the keys
    :func:`record_keys` gives it from key ``delta + (fp - base) * F``,
    right-to-left ending at ``write_end - 1``.  Returns ``(written, moves,
    status)``.
    """
    vmask = tag - 1
    split = F * b
    cmask = (1 << split) - 1
    r = mem_hi - 1
    o = write_end - 1
    moves = 0
    while r >= lo:
        x = S[r]
        if x & tag:
            rec = x & vmask
            fp = rec >> split
            cnt = rec & cmask
        else:
            fp = x
            r -= 1
            if r < lo:
                return 0, moves, STATUS_NO_IDLE
            y = S[r]
            if not y & tag:
                return 0, moves, STATUS_NO_IDLE
            cnt = y & vmask
        for key in record_keys(cnt, delta + (fp - base) * F, F, b):
            if o < r:
                return 0, moves, STATUS_COLLISION
            S[o] = key
            o -= 1
            moves += 1
        r -= 1
    return (write_end - 1) - o, moves, STATUS_OK


def record_keys(rec, key0, F, b):
    """The keys a record of the form ``(F, b)`` (see :func:`practice`) of
    slot ``key0`` stands for, in the order the right-to-left writes take
    them: a count (``F == 1``) key ``key0`` ``rec + 1`` times; otherwise
    key ``key0 + f`` as many times as field ``f`` (``b`` bits) counts,
    fields high to low, so that the writes ascend."""
    if F == 1:
        return repeat(key0, rec + 1)
    field = (1 << b) - 1
    return (key0 + f for f in range(F - 1, -1, -1) for _ in range(rec >> (f * b) & field))


def pass_budget(seg, w):
    """``(eps, pack_split)`` of a counting pass over ``seg`` words at word
    width ``w``, in integers, as the C loops compute them.

    A record packs a former position, of ``lg = ceil(log2 seg)`` bits (at
    least 1), with a count below ``1 << pack_split``, ``pack_split = w -
    1 - lg``.  A node whose count reaches that is overfull and takes a
    companion word, paid for by one idle word; so where ``2 * lg >= w``
    the pass narrows its interval by ``eps`` and hashes it ``eps`` slots
    into the segment, and ``eps`` is the most nodes that can be overfull
    at once.
    """
    lg = 1  # bits that address a position in the segment
    while (1 << lg) < seg:
        lg += 1
    split = w - 1 - lg
    if 2 * lg < w:
        return 0, split
    # An overfull node holds at least thr + 1 of the words (thr = 1 <<
    # split), so at most q = seg // (thr + 1) are overfull at once.  The
    # paper's other term, ceil((seg // 2) / thr), is never larger: it is 0
    # for seg < 2, and otherwise seg > thr (2 * lg >= w), so q >= 1; then
    # seg < (q + 1)(thr + 1) and (q - 1)(thr - 1) >= 0 give seg <= 2q*thr + 1,
    # so seg // 2 <= q * thr.
    return seg // ((1 << split) + 1), split


def practice_store(S, head, hi, delta, top, w):
    """Practice ``S[head:hi]`` at ``delta`` and compact its nodes into
    memory: the first half of a sequential or stacked pass whose keys are
    at most ``top``.

    The pass's node form ``(F, b)``, interval and pivot are those
    :func:`pass_interval` gives count nodes of ``pack_split`` bits over
    the ``seg - eps`` words :func:`pass_budget` leaves the interval: a
    pass whose keys a count pass would defer packs its nodes, with ``eps``
    0, so no field overflows and storage packs ``tag | fp << F * b |
    fields``.  Returns ``(n_distinct, n_companion, delta_next, eps,
    eps_used, F, b, pivot, stored, status, moves, created)``; the memory is
    ``stored`` words long, which is ``n_distinct + eps_used`` when
    ``status`` is 0 and storage kept every node.
    """
    tag = 1 << (w - 1)
    seg = hi - head
    eps, split = pass_budget(seg, w)
    F, b, span, pivot = pass_interval(seg - eps, delta, top, 1, split, tag)
    n_d, n_c, _, dnext, moves, created, _ = practice(
        S, head, hi, delta, eps, span, F, b, tag
    )
    eps_used, stored, mv, status = store_nodes(
        S, head, hi, delta, span, F * b, tag, eps
    )
    return (n_d, n_c, dnext, eps, eps_used, F, b, pivot, stored, status,
            moves + mv, created)


def sequential_passes(S, head, hi, delta, top, w, emit=None):
    """Every pass of a sequential counting sort of ``S[head:hi]`` at word
    width ``w``, from interval start ``delta`` (the segment's minimum),
    whose keys are at most ``top`` (the segment's maximum).

    A pass is :func:`practice_store` ("practice"), :func:`partition_values`
    at the pass's pivot ("partition") and :func:`retrieve_packed` of its
    node form ("retrieve"); a change to it is made to the C loop too.
    Returns ``(passes, moves, node_creations, head, phase, status, a, b, c,
    d)``: ``PHASE_STORE`` when storage kept ``a`` memory words for ``b``
    nodes and ``c`` companions of budget ``d``; ``PHASE_PARTITION`` when
    ``a`` idle words were gathered where ``b`` were expected;
    ``PHASE_RETRIEVE`` when retrieval wrote ``a`` of ``b`` keys;
    ``PHASE_PREFIX`` as in :func:`improved_passes`.
    """
    if emit is None:
        emit = _untraced
    tag = 1 << (w - 1)
    passes = 0
    moves = 0
    created = 0
    while head < hi:
        passes += 1
        n_d, n_c, dnext, eps, eps_used, F, b, pivot, stored, status, mv, cr = (
            practice_store(S, head, hi, delta, top, w)
        )
        moves += mv
        created += cr
        if status != STATUS_OK or stored != n_d + eps_used:
            return (passes, moves, created, head, PHASE_STORE, status,
                    stored, n_d, eps_used, eps)
        emit(STEP_PRACTICE, passes)
        mem = head + n_d + eps_used
        n_low, mv = partition_values(S, mem, hi, pivot, tag)
        moves += mv
        if n_low != n_c - eps_used:
            return (passes, moves, created, head, PHASE_PARTITION, 0,
                    n_low, n_c - eps_used, 0, 0)
        emit(STEP_PARTITION, passes)
        written, mv, status = retrieve_packed(
            S, head, mem, head + n_d + n_c, delta, eps, F, b, tag
        )
        moves += mv
        if status != STATUS_OK or written != n_d + n_c:
            return (passes, moves, created, head, PHASE_RETRIEVE, status,
                    written, n_d + n_c, 0, 0)
        emit(STEP_RETRIEVE, passes)
        head += n_d + n_c
        if head != hi and (dnext < 0 or n_d + n_c == 0):
            return passes, moves, created, head, PHASE_PREFIX, 0, head, hi, 0, 0
        delta = dnext
    return passes, moves, created, head, PHASE_OK, STATUS_OK, 0, 0, 0, 0


def stacked_passes(S, L, head, hi, delta, top, depth, cap, w, emit=None):
    """Every pass of a recursive counting sort of ``S[head:hi]``, whose
    keys are at most ``top``, each leaving its memory in place, then the
    unwind of those memories.

    A pass is :func:`practice_store` ("practice"); a change to it is made
    to the C loop too.  Each pass pushes its level ``(head, delta)`` to
    ``L[2 * depth:]``, a buffer of ``cap`` levels, ``depth`` of them
    already written.  The next pass starts right after the memory; the
    last owns the rest of the segment.  When ``depth`` reaches ``cap``
    before ``head`` reaches ``hi`` the loop returns, and the caller
    resumes it from the ``head``, ``delta`` and ``depth`` it reports on a
    larger buffer.  A pass and the retrieval of its level hand
    ``emit`` the level's number, counted from 1 at the bottom.

    Once ``head`` reaches ``hi`` the same call retrieves every level,
    newest first ("retrieve"), writing sorted keys right-to-left from
    ``hi``; the writes never overtake an unread memory.  Level ``k``'s
    memory ends where level ``k + 1`` starts, and the newest's where this
    call's last pass left it (at ``hi`` if it ran none).  Each level's
    budget and node form are those its pass had, derived again from its
    segment ``hi - head``, its ``delta`` and ``top``, so a level stays two
    words.  A level whose memory lies outside ``[0, write_end)``, whose
    segment is wider than the word or whose key lies outside it fails
    ``STATUS_BAD_SLOT`` before its retrieval runs, with its number in
    ``a``.

    Returns ``(passes, moves, node_creations, head, delta, depth, phase,
    status, a, b, c, d)``, the failures of a pass numbered as in
    :func:`sequential_passes` (a failed pass writes no level), and
    ``PHASE_UNWIND`` with a level's ``status``, or with status 0 when
    ``a`` words below the oldest level were left unwritten.
    """
    if emit is None:
        emit = _untraced
    tag = 1 << (w - 1)
    passes = 0
    moves = 0
    created = 0
    end = hi
    while head < hi and depth < cap:
        passes += 1
        n_d, _, dnext, eps, eps_used, _, _, _, stored, status, mv, cr = (
            practice_store(S, head, hi, delta, top, w)
        )
        moves += mv
        created += cr
        if status != STATUS_OK or stored != n_d + eps_used:
            return (passes, moves, created, head, delta, depth, PHASE_STORE,
                    status, stored, n_d, eps_used, eps)
        L[2 * depth] = head
        L[2 * depth + 1] = delta
        depth += 1
        emit(STEP_PRACTICE, depth)
        end = head + n_d + eps_used
        if dnext >= 0 and end == head:
            return (passes, moves, created, head, delta, depth, PHASE_PREFIX, 0,
                    head, hi, 0, 0)
        head = hi if dnext < 0 else end
        delta = dnext
    if head < hi:
        return (passes, moves, created, head, delta, depth, PHASE_OK, STATUS_OK,
                0, 0, 0, 0)
    write_end = hi
    for level in range(depth - 1, -1, -1):
        h = L[2 * level]
        key = L[2 * level + 1]
        if not (0 <= h <= end <= write_end and hi - h <= tag and 0 <= key < tag):
            return (passes, moves, created, head, delta, depth, PHASE_UNWIND,
                    STATUS_BAD_SLOT, level + 1, 0, 0, 0)
        eps, split = pass_budget(hi - h, w)
        F, b, _, _ = pass_interval(hi - h - eps, key, top, 1, split, tag)
        written, mv, status = retrieve_packed(S, h, end, write_end, key, eps, F, b, tag)
        moves += mv
        if status != STATUS_OK:
            return (passes, moves, created, head, delta, depth, PHASE_UNWIND,
                    status, 0, 0, 0, 0)
        write_end -= written
        emit(STEP_RETRIEVE, level + 1)
        end = h
    if depth and write_end != L[0]:
        return (passes, moves, created, head, delta, depth, PHASE_UNWIND, 0,
                write_end - L[0], 0, 0, 0)
    return (passes, moves, created, head, delta, depth, PHASE_OK, STATUS_OK,
            0, 0, 0, 0)


def store_records(S, lo, hi, n_d, tag):
    """Move the k-th node's record into the value plane of ``S[lo + k]``.

    Value planes swap; tag bits stay put, so every node keeps marking its
    slot (the key it stands for) while its count is parked at the front.
    Returns ``(stored, moves, status)``.
    """
    vmask = tag - 1
    k = lo
    moves = 0
    for p in range(lo, hi):
        if not S[p] & tag:
            continue
        if p != k:
            a = S[k]
            b = S[p]
            S[k] = (a & tag) | (b & vmask)
            S[p] = (b & tag) | (a & vmask)
            moves += 2
        k += 1
        if k - lo == n_d:
            break
    if k - lo != n_d:
        return k - lo, moves, STATUS_TAG_SCAN
    return k - lo, moves, STATUS_OK


def retrieve_scan(S, lo, hi, n_d, n_c, delta, F, b, tag):
    """Emit sorted keys from node positions, records parked at the front.

    Nodes are located by scanning tag bits right-to-left; the k-th node
    from the right, at ``p``, pairs with the record in the value plane of
    ``S[lo + k]``, whose keys :func:`record_keys` gives from key ``delta +
    (p - lo) * F``.  Each node's tag is cleared before its keys are
    written, the writes masked so surviving tags are preserved.  Returns
    ``(moves, status)``.
    """
    vmask = tag - 1
    o = lo + n_d + n_c - 1
    p = hi - 1
    moves = 0
    for k in range(n_d - 1, -1, -1):
        while p >= lo and not S[p] & tag:
            p -= 1
        if p < lo:
            return moves, STATUS_TAG_SCAN
        rec = S[lo + k] & vmask
        S[p] = S[p] & vmask
        for key in record_keys(rec, delta + (p - lo) * F, F, b):
            if o < lo + k:
                return moves, STATUS_COLLISION
            S[o] = (S[o] & tag) | key
            o -= 1
            moves += 1
        p -= 1
    if o != lo - 1:
        return moves, STATUS_COLLISION
    return moves, STATUS_OK


def pass_interval(seg, delta, top, F, b, tag):
    """``(F, b, span, pivot)`` of a pass over ``seg`` words from key
    ``delta`` whose keys are at most ``top``, for a sort of nodes of the
    form ``(F, b)`` (see :func:`practice`): the pass's node form, the
    ``span`` keys its interval covers, and the ``pivot`` at or below which
    ``partition_values`` gathers words.  The one packing rule of the three
    count sorters: :func:`improved_passes` asks it with ``(1, w - 1)``,
    :func:`practice_store` with ``(1, pack_split)``.

    A sort of count nodes packs a pass into ``b // bits >= 2`` fields of
    ``bits = seg.bit_length()`` bits, which no count can overflow.  Records
    of the whole value plane (``b = w - 1``: the improved sorters, whose
    records park in words of their own) pack every such pass, the dense
    one too.  Records that share their word with a former position
    (``b = pack_split``: the counting sorters) pack only a pass whose keys
    a count pass would defer (``top - delta >= seg``): packing their dense
    passes made their loops 1.15-1.43 times slower on permutations.  A
    count pass spans the segment; other nodes cover ``F`` keys a segment
    word, clamped to the ``tag`` node slots.  The C loops compute the same.
    """
    bits = int(seg).bit_length()
    if F == 1 and seg > 0 and b // bits >= 2 and (1 << b == tag or top - delta >= seg):
        F, b = b // bits, bits
    if F == 1:
        return F, b, seg, delta + seg - 1
    span = min(F * seg, tag)
    return F, b, span, min(delta + span - 1, tag - 1)


# A dense-last pass practices with this many cursors.
CURSORS = 16
# dense_last's floor, in segment words: twice to three times what L1 holds.
DENSE_FLOOR = 1 << 14


def dense_last(seg, delta, top, F):
    """Whether a pass of count (``F == 1``) or packed nodes of ``F`` fields
    over ``seg`` words from interval start ``delta``, whose keys are at
    most ``top``, is *dense-last*, so that ``improved_passes`` practices it
    with :func:`practice_cursors`: the segment has at least
    ``DENSE_FLOOR`` words, the pass defers no key (``top - delta < seg``),
    and the keys span at least 5/8 of the segment for count nodes, 3/4 for
    packed ones.  The C loop's comment at ``DENSE_FLOOR`` holds the grids
    these bounds come from.
    """
    return (seg >= DENSE_FLOOR and 0 <= delta <= top and top - delta < seg
            and 8 * (top - delta) >= (5 if F == 1 else 6) * seg)


def practice_cursors(S, lo, hi, delta, span, F, b, tag):
    """:func:`practice` of a whole segment (``base`` 0) of count or packed
    nodes of the form ``(F, b)`` as ``CURSORS`` cursors, cursor ``c``
    scanning the block of words ``[lo + c * 2**sh, lo + (c + 1) * 2**sh)``
    of the segment, for the least ``sh`` whose blocks cover it.  ``span``
    is at most ``F * (hi - lo)``, so that every slot lies in a block.

    Round after round, each cursor not yet at the end of its block takes
    one step of :func:`practice`'s loop, in cursor order.  Where a step
    makes a node at slot ``j``, the word it displaces was already counted
    when ``j`` lies behind the cursor of ``j``'s block, and the cursor
    then moves on; otherwise it examines that word next.  A step reads
    its word anew, since another cursor may have made a node there.

    Every word is counted once, as in :func:`practice`, so a segment that
    holds only untagged keys in ``[delta, delta + span)`` ends with the
    same nodes, counts and results, whatever the order; other words may
    end elsewhere.  Returns :func:`practice`'s tuple, ``dup`` -1: a bitmap
    form is never practiced so.
    """
    seg = hi - lo
    sh = 0
    while seg > CURSORS << sh:
        sh += 1
    cur = [min(lo + (c << sh), hi) for c in range(CURSORS)]
    end = [min(lo + ((c + 1) << sh), hi) for c in range(CURSORS)]
    live = 0
    for c in range(CURSORS):
        if cur[c] < end[c]:
            live += 1
    n_d = 0
    n_c = 0
    n_def = 0
    dnext = -1
    while live:
        for c in range(CURSORS):
            i = cur[c]
            if i == end[c]:
                continue
            v = S[i]
            step = 1
            d = v - delta
            if v & tag or d < 0:
                pass  # a node, or a word below the interval: stepped over
            elif d >= span:
                n_def += 1
                if dnext < 0 or v < dnext:
                    dnext = v
            else:
                j = lo + d // F
                one = 1 << (d % F * b)
                t = S[j]
                if t & tag:
                    S[j] = t + one
                    n_c += 1
                else:
                    S[i] = t
                    S[j] = tag | one if F != 1 else tag
                    n_d += 1
                    if j >= cur[(j - lo) >> sh]:
                        step = 0
            cur[c] = i + step
            if i + step == end[c]:
                live -= 1
    return n_d, n_c, n_def, dnext, n_d, n_d, -1


def improved_passes(S, head, hi, delta, top, F, b, tag, emit=None):
    """Every pass of an improved sort of ``S[head:hi]``, from interval
    start ``delta`` (the segment's minimum), whose keys are at most
    ``top`` (the segment's maximum).

    A pass is practice ("practice"), ``store_records`` ("store"),
    ``partition_values`` ("partition") and retrieval ("retrieve"), over
    nodes of the form :func:`pass_interval` gives the pass for the sort's
    ``(F, b)``.  A change to it is made to the C loop too.  Practice is
    :func:`practice_cursors` in a :func:`dense_last` pass of count or packed
    nodes, which on keys in ``[delta, top]`` leaves what :func:`practice`
    leaves.  The next pass starts at the smallest key this one deferred.
    Returns ``(passes, moves, node_creations, head, phase, status, a,
    b)``: the counters so far, where the sorted prefix ends, and, when a
    check failed, the
    ``PHASE_*`` that names it with its numbers ``a`` and ``b`` (the pass
    stops there): ``PHASE_DUPLICATE`` the key ``a``; ``PHASE_STORE``
    ``a`` tagged words for ``b`` records; ``PHASE_PARTITION`` ``a`` idle
    words where ``b`` were expected; ``PHASE_RETRIEVE`` its ``status``,
    with the pass's node form in ``a, b``.  A pass that settles no word fails ``PHASE_PREFIX``
    (the prefix stopped at ``a`` of ``b``), as every pass loop does, so
    the loop ends within ``hi - head`` passes whatever the arguments.
    """
    if emit is None:
        emit = _untraced
    passes = 0
    moves = 0
    created = 0
    while head < hi:
        passes += 1
        fields, bits, span, pivot = pass_interval(hi - head, delta, top, F, b, tag)
        if (fields == 1 or bits != 1) and dense_last(hi - head, delta, top, fields):
            n_d, n_c, _, dnext, mv, cr, dup = practice_cursors(
                S, head, hi, delta, span, fields, bits, tag
            )
        else:
            n_d, n_c, _, dnext, mv, cr, dup = practice(
                S, head, hi, delta, 0, span, fields, bits, tag
            )
        moves += mv
        created += cr
        if dup >= 0:
            return passes, moves, created, head, PHASE_DUPLICATE, 0, dup, 0
        emit(STEP_PRACTICE, passes)
        stored, mv, status = store_records(S, head, hi, n_d, tag)
        moves += mv
        if status != STATUS_OK:
            return passes, moves, created, head, PHASE_STORE, status, stored, n_d
        emit(STEP_STORE, passes)
        n_low, mv = partition_values(S, head + n_d, hi, pivot, tag)
        moves += mv
        if n_low != n_c:
            return passes, moves, created, head, PHASE_PARTITION, 0, n_low, n_c
        emit(STEP_PARTITION, passes)
        mv, status = retrieve_scan(S, head, hi, n_d, n_c, delta, fields, bits, tag)
        moves += mv
        if status != STATUS_OK:
            return passes, moves, created, head, PHASE_RETRIEVE, status, fields, bits
        emit(STEP_RETRIEVE, passes)
        head += n_d + n_c
        if head != hi and (dnext < 0 or n_d + n_c == 0):
            return passes, moves, created, head, PHASE_PREFIX, 0, head, hi
        delta = dnext
    return passes, moves, created, head, PHASE_OK, STATUS_OK, 0, 0


def practice_rank(K, P, lo, hi, delta, span, tag):
    """:func:`practice` of count nodes from ``lo`` (``base = 0``, ``F = b
    = 1``), carrying the payloads ``P``: its first six results."""
    return practice(K, lo, hi, delta, 0, span, 1, 1, tag, P=P)[:6]


def accumulate_records(K, lo, hi, tag):
    """Turn per-node counts into inclusive rank prefix sums, in place.

    After this, a node's record is the index of the *last* slot of its
    key's run in the sorted order.  Returns ``(n_nodes, total)``.
    """
    vmask = tag - 1
    n_nodes = 0
    total = 0
    for q in range(lo, hi):
        x = K[q]
        if x & tag:
            total += (x & vmask) + 1
            K[q] = tag | (total - 1)
            n_nodes += 1
    return n_nodes, total


def repractice_idle(K, lo, hi, delta, span, tag):
    """Hand every idle word a destination ticket drawn from its node.

    An untagged word whose key lies in the interval re-hashes to its
    node, takes the node's current record as its destination (relative
    to ``lo``), and the record is decremented.  After the sweep each
    node's record is the *first* slot of its run — which is where the
    node itself must go.  Returns ``(n_tickets, status)``.
    """
    vmask = tag - 1
    made = 0
    for q in range(lo, hi):
        x = K[q]
        if x & tag:
            continue
        d = x - delta
        if d < 0 or d >= span:
            continue
        j = lo + d
        y = K[j]
        if not y & tag:
            return made, STATUS_BAD_HASH
        K[q] = y & vmask
        K[j] = y - 1
        made += 1
    return made, STATUS_OK


def reactivate(K, P, lo, hi, n_sorted, tag):
    """Move every element of the segment to its final slot for this pass.

    Three kinds of words: nodes (tagged; destination = own record), idle
    tickets (untagged, value < n_sorted; destination = value), and
    deferred keys (untagged, value >= n_sorted; packed after the sorted
    prefix in scan order).  Nodes are displaced at most once, along a
    chain of node-into-node placements that ends in the scan hole.
    A placed node's record is rewritten to its former slot index so the
    key can be reconstructed later.  Every word lands in its final slot
    at most once, so a ticket or record naming a slot outside the segment,
    or more placements than slots, fails ``STATUS_BAD_SLOT`` before any
    word outside ``[lo, hi)`` is touched.  Returns ``(moves, status)``.
    """
    vmask = tag - 1
    n = hi - lo
    moves = 0
    placed = 0  # words put in their final slot
    kc = lo + n_sorted  # pack cursor for deferred keys
    i = lo
    while i < hi:
        x = K[i]
        if x & tag:
            i += 1
            continue
        if x < n_sorted:
            # Idle ticket: its destination is its value.
            if x < 0 or x >= n:
                return moves, STATUS_BAD_SLOT
            q = lo + x
            if q == i:
                i += 1
                continue
        else:
            # Deferred key: its destination is the pack cursor.
            if i >= kc:
                if i == kc:
                    kc += 1
                    i += 1
                    continue
                return moves, STATUS_CURSOR
            if i >= lo + n_sorted:
                i += 1  # already packed
                continue
            if kc >= hi:
                return moves, STATUS_CURSOR
            q = kc
            kc += 1
        placed += 1
        if placed > n:
            return moves, STATUS_BAD_SLOT
        y = K[q]
        if not y & tag:
            K[i] = y
            K[q] = x
            pp = P[i]
            P[i] = P[q]
            P[q] = pp
            moves += 3
            continue
        # The word claims a node's slot: place it, then walk the chain of
        # displaced nodes until one lands in the hole at i.
        K[q] = x
        curp = P[q]
        P[q] = P[i]
        moves += 2
        former = q - lo
        cur = y
        while True:
            dd = cur & vmask
            placed += 1
            if dd < 0 or dd >= n or placed > n:
                return moves, STATUS_BAD_SLOT
            qq = lo + dd
            if qq == i:
                K[i] = tag | former
                P[i] = curp
                moves += 2
                break
            z = K[qq]
            pz = P[qq]
            K[qq] = tag | former
            P[qq] = curp
            moves += 2
            if z & tag:
                cur = z
                curp = pz
                former = dd
            else:
                K[i] = z
                P[i] = pz
                moves += 2
                break
    return moves, STATUS_OK


def restore_keys(K, lo, hi_sorted, delta, tag):
    """Rewrite the sorted prefix's words as keys.

    A node's record is its former hash slot, so its key is
    ``delta + record``; it is overwritten in place and the key repeats
    for every following untagged word of the run.  Returns
    ``(moves, status)``.
    """
    vmask = tag - 1
    key = -1
    moves = 0
    for q in range(lo, hi_sorted):
        x = K[q]
        if x & tag:
            key = delta + (x & vmask)
        elif key < 0:
            return moves, STATUS_BAD_PREFIX
        K[q] = key
        moves += 1
    return moves, STATUS_OK


def rank_passes(K, P, head, hi, delta, tag, emit=None):
    """Every pass of a rank sort of ``K[head:hi]``, carrying ``P``, from
    interval start ``delta`` (the segment's minimum).

    A pass is :func:`practice` of count nodes from ``head`` carrying ``P``
    ("practice"), :func:`accumulate_records` ("accumulate"),
    :func:`repractice_idle` ("repractice"), :func:`reactivate`
    ("reactivate") and :func:`restore_keys` ("restore"); a change to it is
    made to the C loop too.  Returns ``(passes, moves, node_creations,
    head, phase, status, a, b, c, d)``: ``PHASE_ACCUMULATE`` when
    accumulation saw ``a`` nodes and ``b`` elements where practice
    reported ``c`` and ``d``; ``PHASE_TICKET`` when ticketing made ``a``
    of ``b`` tickets;
    ``PHASE_REACTIVATE`` and ``PHASE_RESTORE`` with their ``status``;
    ``PHASE_PREFIX`` as in :func:`improved_passes`.
    """
    if emit is None:
        emit = _untraced
    passes = 0
    moves = 0
    created = 0
    while head < hi:
        passes += 1
        seg = hi - head
        n_d, n_c, _, dnext, mv, cr, _ = practice(K, head, hi, delta, 0, seg, 1, 1, tag, P=P)
        moves += mv
        created += cr
        emit(STEP_PRACTICE, passes)
        n_nodes, total = accumulate_records(K, head, hi, tag)
        if n_nodes != n_d or total != n_d + n_c:
            return (passes, moves, created, head, PHASE_ACCUMULATE, 0,
                    n_nodes, total, n_d, n_d + n_c)
        emit(STEP_ACCUMULATE, passes)
        n_tickets, status = repractice_idle(K, head, hi, delta, seg, tag)
        if status != STATUS_OK or n_tickets != n_c:
            return (passes, moves, created, head, PHASE_TICKET, status,
                    n_tickets, n_c, 0, 0)
        emit(STEP_REPRACTICE, passes)
        mv, status = reactivate(K, P, head, hi, n_d + n_c, tag)
        moves += mv
        if status != STATUS_OK:
            return passes, moves, created, head, PHASE_REACTIVATE, status, 0, 0, 0, 0
        emit(STEP_REACTIVATE, passes)
        mv, status = restore_keys(K, head, head + n_d + n_c, delta, tag)
        moves += mv
        if status != STATUS_OK:
            return passes, moves, created, head, PHASE_RESTORE, status, 0, 0, 0, 0
        emit(STEP_RESTORE, passes)
        head += n_d + n_c
        if head != hi and (dnext < 0 or n_d + n_c == 0):
            return passes, moves, created, head, PHASE_PREFIX, 0, head, hi, 0, 0
        delta = dnext
    return passes, moves, created, head, PHASE_OK, STATUS_OK, 0, 0, 0, 0


def radix_pass(src, dst, n, shift):
    """One stable 8-bit counting pass of an LSD radix sort."""
    counts = np.zeros(256, dtype=np.int64)
    for i in range(n):
        counts[(src[i] >> shift) & 0xFF] += 1
    total = 0
    for b in range(256):
        c = counts[b]
        counts[b] = total
        total += c
    for i in range(n):
        d = (src[i] >> shift) & 0xFF
        dst[counts[d]] = src[i]
        counts[d] += 1
    return n
