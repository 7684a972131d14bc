"""The input front door, the pass loop, and the counting variant.

Every sorter enters through :func:`check_words`, which refuses malformed
input before any word is written and scans the keys' minimum once, and
then runs :func:`run_passes`, which calls the variant's *pass step* on
the unsorted segment ``S[head:]`` until nothing is left.  A step returns
how many words its pass settled and the smallest key it deferred; the
next pass starts there, so no pass rescans for a minimum.

The counting variant's sequential step turns the front of the unsorted
segment into *short-term memory* — a compact run of node words, each
remembering a distinct key (by former position) and its occurrence
count — then expands that memory back into sorted keys:

1. practice: hash every in-interval key to its slot; first occurrence
   becomes a tagged node, repeats bump the node's record.
2. store: compact nodes to the front.  A count too large to share a
   record with its position takes a second memory word (a *companion*),
   paid for by destroying one idle word — the interval was narrowed by
   ``epsilon`` up front precisely so enough idles exist.
3. partition: gather the surviving idle words right after the memory so
   the deferred keys end up in the final tail.
4. retrieve: walk the memory right-to-left and write each key
   ``count + 1`` times, filling the segment front exactly.

The recursive driver instead stacks the memories of successive passes
and unwinds them back-to-front, which needs no partitioning.
"""

from functools import partial
from typing import Callable, Optional

import numpy as np

from .backend import active
from .counters import OpCounters
from .errors import CorruptStateError, InputError, WordRangeError
from .words import WordConfig, epsilon

TraceFn = Callable[[str, int, np.ndarray], None]


def check_array(S, what: str = "keys") -> None:
    """Refuse anything but a writable 1-D ``int64`` numpy array."""
    if not (
        isinstance(S, np.ndarray)
        and S.ndim == 1
        and S.dtype == np.int64
        and S.flags.writeable
    ):
        got = type(S).__name__
        if isinstance(S, np.ndarray):
            got = f"{S.ndim}-D {S.dtype} array (writeable={S.flags.writeable})"
        raise InputError(f"{what} must be a writable 1-D int64 numpy array, got {got}")


def check_words(
    S: np.ndarray, cfg: WordConfig, P: Optional[np.ndarray] = None
) -> Optional[tuple]:
    """The front door of every sorter: validate before any word is written.

    Refuses with :class:`~assocsort.errors.InputError` anything but a
    writable 1-D ``int64`` array, and for a payload ``P`` one of the same
    kind and length that shares no memory with the keys.  Then checks the
    array length and the key range against the word model
    (:class:`~assocsort.errors.WordRangeError`).  Returns the keys'
    ``(min, max)``, or ``None`` when ``S`` is empty.
    """
    check_array(S)
    n = len(S)
    if P is not None:
        check_array(P, "payload")
        if len(P) != n:
            raise InputError(f"payload length {len(P)} != key length {n}")
        if np.shares_memory(S, P):
            raise InputError("payload shares memory with the keys")
    if n > cfg.tag_mask:
        raise WordRangeError(
            f"{n} words exceed the {cfg.tag_mask} node slots of w={cfg.w}"
        )
    if n == 0:
        return None
    mn, mx = active().min_max(S, 0, n)
    if mn < 0 or mx > cfg.max_key:
        raise WordRangeError(
            f"keys must lie in [0, {cfg.max_key}], saw [{mn}, {mx}]"
        )
    return int(mn), int(mx)


def start(
    S: np.ndarray,
    cfg: Optional[WordConfig],
    counters: Optional[OpCounters],
    P: Optional[np.ndarray] = None,
) -> tuple:
    """``(cfg, counters, bounds)`` of a sort: the defaults filled in and
    :func:`check_words`' answer, ``None`` for an empty ``S``."""
    cfg = cfg or WordConfig()
    counters = counters if counters is not None else OpCounters()
    return cfg, counters, check_words(S, cfg, P)


def _quiet(phase: str) -> None:
    pass


def run_passes(
    step: Callable[..., tuple],
    S: np.ndarray,
    cfg: Optional[WordConfig],
    counters: Optional[OpCounters],
    trace: Optional[TraceFn],
    P: Optional[np.ndarray] = None,
) -> OpCounters:
    """Sort ``S`` (carrying ``P``) in place, one ``step`` per pass.

    ``step(S, P, head, delta, cfg, counters, emit)`` sorts one pass of
    the segment ``S[head:]`` at interval start ``delta`` and returns
    ``(words_advanced, delta_next)``; ``delta_next`` is the smallest key
    it deferred, or -1 when it deferred nothing.  Pass 1 starts at the
    minimum the front door scanned, each later pass where its predecessor
    left off.  A pass that leaves words unsorted but deferred nothing, or
    settled nothing, raises :func:`stalled`.  ``step`` reports each
    finished phase through ``emit(phase)``, which hands ``trace`` a
    snapshot.
    """
    cfg, counters, bounds = start(S, cfg, counters, P)
    if bounds is None:
        return counters
    emit = _quiet
    if trace is not None:
        emit = lambda phase: trace(phase, counters.passes, S.copy())
    n = len(S)
    head = 0
    delta = bounds[0]
    while head < n:
        counters.passes += 1
        advanced, dnext = step(S, P, head, delta, cfg, counters, emit)
        head += advanced
        if head != n and (dnext < 0 or advanced == 0):
            raise stalled(head, n)
        delta = int(dnext)
    return counters


def stalled(head: int, n: int) -> CorruptStateError:
    """The error of a pass that left ``S[head:n]`` unsorted but deferred
    no key or settled no word."""
    return CorruptStateError(f"sorted prefix stopped at {head} of {n}")


def _practice_store(S, head, delta, cfg, counters):
    """Practice ``S[head:]`` at ``delta`` and compact its nodes into memory.

    Returns ``(n_distinct, n_companion, eps, eps_used, pack_split,
    delta_next)``; the memory is ``n_distinct + eps_used`` words long.
    """
    k = active()
    n = len(S)
    seg = n - head
    eps = epsilon(seg, cfg)
    split = cfg.pack_split(seg)
    n_d, n_c, _, dnext, moves, created = k.practice(
        S, head, n, delta, eps, seg - eps, cfg.tag_mask
    )
    counters.moves += moves
    counters.node_creations += created
    eps_used, stored, moves, status = k.store_nodes(
        S, head, n, delta, seg - eps, split, cfg.tag_mask, eps
    )
    counters.moves += moves
    if status != 0 or stored != n_d + eps_used:
        raise CorruptStateError(
            f"storage kept {stored} memory words for {n_d} nodes and "
            f"{eps_used} companions of budget {eps} (status {status})"
        )
    return n_d, n_c, eps, eps_used, split, dnext


def _sequential_step(S, P, head, delta, cfg, counters, emit):
    """One practice/store/partition/retrieve cycle over ``S[head:]``."""
    k = active()
    n = len(S)
    n_d, n_c, eps, eps_used, split, dnext = _practice_store(
        S, head, delta, cfg, counters
    )
    emit("practice")
    mem = head + n_d + eps_used
    pivot = delta + (n - head - eps) - 1
    n_low, moves = k.partition_values(S, mem, n, pivot, cfg.tag_mask)
    counters.moves += moves
    if n_low != n_c - eps_used:
        raise CorruptStateError(
            f"{n_low} idle words after storage, expected {n_c - eps_used}"
        )
    emit("partition")
    written, moves, status = k.retrieve_packed(
        S, head, mem, head + n_d + n_c, delta, eps, split, cfg.tag_mask
    )
    counters.moves += moves
    if status != 0 or written != n_d + n_c:
        raise CorruptStateError(
            f"retrieval wrote {written} of {n_d + n_c} keys (status {status})"
        )
    emit("retrieve")
    return n_d + n_c, dnext


def _stack_step(stack, S, P, head, delta, cfg, counters, emit):
    """Practice and store one pass, leaving its memory for the unwind.

    The pass's control state, four ints, goes on ``stack``.  The next
    pass starts right after the memory; the last pass owns the rest of
    the segment, which the unwind overwrites.
    """
    n_d, _, _, eps_used, _, dnext = _practice_store(S, head, delta, cfg, counters)
    emit("practice")
    stack.append((n_d, eps_used, delta, head))
    if len(stack) > counters.max_depth:
        counters.max_depth = len(stack)
    if dnext < 0:
        return len(S) - head, dnext
    return n_d + eps_used, dnext


def sort_associative(
    S: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort ``S`` in place, one practice/store/retrieve cycle per pass."""
    return run_passes(_sequential_step, S, cfg, counters, trace)


def sort_associative_recursive(
    S: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort ``S`` in place, stacking pass memories and unwinding once.

    Each pass leaves its short-term memory in place and descends into
    the tail; no partitioning happens.  The unwind retrieves memories
    newest-first, writing sorted keys right-to-left from the array end,
    which is guaranteed not to overtake the unread memories.  Control
    state is four words per level.
    """
    cfg = cfg or WordConfig()
    stack = []
    counters = run_passes(partial(_stack_step, stack), S, cfg, counters, trace)
    k = active()
    write_end = len(S)
    for level in range(len(stack), 0, -1):
        n_d, eps_used, delta, h = stack.pop()
        seg = len(S) - h
        written, moves, status = k.retrieve_packed(
            S, h, h + n_d + eps_used, write_end, delta, epsilon(seg, cfg),
            cfg.pack_split(seg), cfg.tag_mask,
        )
        counters.moves += moves
        if status != 0:
            raise CorruptStateError(f"unwind retrieval failed (status {status})")
        write_end -= written
        if trace is not None:
            trace("retrieve", level, S.copy())
    if write_end != 0:
        raise CorruptStateError(
            f"unwind left {write_end} words unwritten at the front"
        )
    return counters
