"""The input front door, the pass loop, and the counting variant.

Every sorter enters through :func:`by_range`, which checks ``cfg`` and
``counters`` and, through :func:`check_words`, refuses malformed input
before any word is written and scans the keys' minimum and maximum once.
It then decides how the keys are sorted: keys in ``[0, 2**(w-1))`` as
they are, any other ``int64`` keys shifted by their minimum or split at
the midpoint of their range.  A sort of keys in range is one call of its
*pass loop* (:func:`run_loop`), which runs every pass on the unsorted
segment ``S[head:]`` until nothing is left.  Each pass starts at the
smallest key its predecessor deferred, so no pass rescans for a minimum.
A failed check is raised through the driver's ``_fail``.  Traced or not,
a sort runs the loop of its backend; a traced one hands it a hook that
gives the trace a snapshot after each phase (see :func:`hook`).

The counting variant's sequential pass turns the front of the unsorted
segment into *short-term memory* — a compact run of node words, each
remembering a distinct key (by former position) and its occurrence
count — then expands that memory back into sorted keys:

1. practice: hash every in-interval key to its slot; first occurrence
   becomes a tagged node, repeats bump the node's record.
2. store: compact nodes to the front.  A count too large to share a
   record with its position takes a second memory word (a *companion*),
   paid for by destroying one idle word — the interval was narrowed by
   ``eps`` (``kernels.pass_budget``) up front precisely so enough idles
   exist.
3. partition: gather the surviving idle words right after the memory so
   the deferred keys end up in the final tail.
4. retrieve: walk the memory right-to-left and write each key
   ``count + 1`` times, filling the segment front exactly.

A pass whose keys reach past such an interval (``top - delta >= seg``)
*packs* its nodes where the record has room (``kernels.pass_interval``):
a node holds the occurrences of ``F`` consecutive keys in fields of
``seg.bit_length()`` bits, so the interval covers ``F`` keys per segment
word.  No field can overflow, so a packed pass reserves no ``eps`` and
makes no companions: companions occur only in count passes.

The recursive driver instead stacks the memories of successive passes
and, in the same loop, unwinds them back-to-front, which needs no
partitioning.
"""

from typing import Callable, Optional

import numpy as np

from .backend import active, active_loops
from .counters import OpCounters
from .errors import CorruptStateError, DuplicateKeyError, InputError, WordRangeError
from .kernels import (
    PHASE_OK,
    PHASE_PARTITION,
    PHASE_RETRIEVE,
    PHASE_STORE,
    PHASE_UNWIND,
    STATUS_BAD_SLOT,
    STEPS,
)
from .words import WordConfig

# Levels the recursive driver's level buffer holds at first, and adds each
# time the stacked passes fill it.
LEVELS = 32

# A sort's ``trace``: called with the phase, the pass and a copy of the
# array after each phase; of a shifted sort, the shifted words, and of a
# split one, each part in turn, its passes numbered on from the last
# part's.  If it raises, the sort stops at that phase and raises that
# exception, and the array's content is unspecified.
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


def check_words(S: np.ndarray, cfg: WordConfig, P: Optional[np.ndarray] = None) -> Optional[tuple]:
    """Validate before any word is written.

    Refuses with :class:`~assocsort.errors.InputError` anything but a
    writable 1-D ``int64`` array, and for a payload ``P`` one of the same
    kind and length that shares no memory with the keys, and with
    :class:`~assocsort.errors.WordRangeError` more words than the word
    model's node slots.  Keys may be any ``int64``.  Returns the keys'
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
        raise WordRangeError(f"{n} words exceed the {cfg.tag_mask} node slots of w={cfg.w}")
    if n == 0:
        return None
    mn, mx = active().min_max(S, 0, n)
    return int(mn), int(mx)


def by_range(sort, S, cfg, counters, P, *spec) -> OpCounters:
    """The front door of every sorter: sort ``S`` (carrying ``P``) in place
    with ``sort(S, P, bounds, cfg, counters, *spec)``, which takes keys in
    ``[0, cfg.max_key]`` only, and return ``counters``.

    ``cfg`` and ``counters`` default for ``None`` and are refused with
    :class:`~assocsort.errors.InputError` if of another type; then
    :func:`check_words` checks the input.  Keys in that range go to
    ``sort`` as they are; keys whose range fits it are shifted down by
    their minimum in place and back after (a ``DuplicateKeyError`` names
    its key as the input held it); wider keys are split at the midpoint
    of their range by ``partition_values`` at tag 0, each part taking the
    same rule.  Shifts and splits count their writes as moves.
    """
    if cfg is None:
        cfg = WordConfig()
    if counters is None:
        counters = OpCounters()
    if not isinstance(cfg, WordConfig):
        raise InputError(f"cfg must be a WordConfig, got {type(cfg).__name__}")
    if not isinstance(counters, OpCounters):
        raise InputError(f"counters must be an OpCounters, got {type(counters).__name__}")
    bounds = check_words(S, cfg, P)
    if bounds is None:
        return counters
    mn, mx = bounds
    if 0 <= mn and mx <= cfg.max_key:
        sort(S, P, bounds, cfg, counters, *spec)
    elif mx - mn > cfg.max_key:
        n_low, moves = active().partition_values(S, 0, len(S), (mn + mx) // 2, 0, P)
        counters.moves += moves
        for part in (slice(0, n_low), slice(n_low, None)):
            by_range(sort, S[part], cfg, counters, None if P is None else P[part], *spec)
    else:
        S -= mn
        counters.moves += len(S)
        try:
            sort(S, P, (0, mx - mn), cfg, counters, *spec)
        except DuplicateKeyError as exc:
            if exc.key is None:
                raise
            key = exc.key + mn
            raise DuplicateKeyError(f"key {key} occurs more than once", key=key) from None
        S += mn
        counters.moves += len(S)
    return counters


def hook(S: np.ndarray, trace: Optional[TraceFn], passes: int = 0):
    """The ``emit`` argument of a pass loop sorting ``S``: ``None``
    untraced, else a hook that calls ``trace(phase, passes + p, copy of
    S)`` after each phase of the loop's pass ``p``."""
    if trace is None:
        return None
    return lambda step, p: trace(STEPS[step], passes + p, S.copy())


def run_loop(
    loop: str,
    fail: Callable[..., None],
    S: np.ndarray,
    cfg: Optional[WordConfig],
    counters: Optional[OpCounters],
    P: Optional[np.ndarray] = None,
    args: Callable[[tuple, WordConfig], tuple] = lambda bounds, cfg: bounds[:1],
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort ``S`` (carrying ``P``) in place in one call of the active
    backend's pass loop named ``loop`` (one a part, see :func:`by_range`).

    The loop takes the arrays, the segment ``0, len(S)``, ``args`` of the
    keys' ``(min, max)`` and ``cfg`` (by default the minimum alone) and the
    :func:`hook` of ``trace``, and returns ``(passes, moves,
    node_creations, head, phase, status, *numbers)``.  Its counters are
    added to ``counters``; a failed check is raised by ``fail(phase,
    status, *numbers)``.
    """
    return by_range(_pass_loop, S, cfg, counters, P, loop, fail, args, trace)


def _pass_loop(S, P, bounds, cfg, counters, loop, fail, args, trace):
    """The loop call of :func:`run_loop` on keys in ``[0, cfg.max_key]``."""
    arrays = (S,) if P is None else (S, P)
    passes, moves, created, _, phase, status, *numbers = getattr(active_loops(), loop)(
        *arrays, 0, len(S), *args(bounds, cfg), hook(S, trace, counters.passes)
    )
    counters.passes += passes
    counters.moves += moves
    counters.node_creations += created
    if phase != PHASE_OK:
        fail(phase, status, *numbers)


def stalled(head: int, n: int) -> CorruptStateError:
    """The error of a pass that left ``S[head:n]`` unsorted but deferred
    no key or settled no word."""
    return CorruptStateError(f"sorted prefix stopped at {head} of {n}")


def _fail(phase, status, a=0, b=0, c=0, d=0):
    """Raise the error of the failed check ``phase`` of a sequential or
    stacked pass or of the unwind, with the numbers that
    ``sequential_passes`` and ``stacked_passes`` report for it."""
    if phase == PHASE_STORE:
        raise CorruptStateError(
            f"storage kept {a} memory words for {b} nodes and "
            f"{c} companions of budget {d} (status {status})"
        )
    if phase == PHASE_PARTITION:
        raise CorruptStateError(f"{a} idle words after storage, expected {b}")
    if phase == PHASE_RETRIEVE:
        raise CorruptStateError(f"retrieval wrote {a} of {b} keys (status {status})")
    if phase == PHASE_UNWIND:
        if status == STATUS_BAD_SLOT:
            raise CorruptStateError(
                f"unwind level {a} is out of bounds (status {status}); "
                "its retrieval did not run"
            )
        if status:
            raise CorruptStateError(f"unwind retrieval failed (status {status})")
        raise CorruptStateError(f"unwind left {a} words unwritten at the front")
    raise stalled(a, b)  # PHASE_PREFIX


# The ``sequential_passes`` arguments after the segment: the keys' bounds
# and the word width.
_width = lambda bounds, cfg: (*bounds, cfg.w)


def sort_associative(
    S: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort ``S`` in place, one practice/store/retrieve cycle per pass."""
    return run_loop("sequential_passes", _fail, S, cfg, counters, args=_width, trace=trace)


def sort_associative_recursive(
    S: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort ``S`` in place, stacking pass memories and unwinding once.

    Each pass leaves its short-term memory in place and descends into
    the tail; no partitioning happens.  Once the tail is empty, the same
    ``stacked_passes`` call retrieves the memories newest-first, writing
    sorted keys right-to-left from the array end, which is guaranteed not
    to overtake the unread memories.  Control state is two words per
    level, its ``(head, delta)``, from which the unwind derives the level's
    budget and node form again, with the keys' maximum, in an ``int64``
    level buffer that starts
    at ``LEVELS`` levels and grows by as many whenever ``stacked_passes``
    fills it first.  A trace sees a level's practice and its retrieval
    numbered alike, by the pass that practiced it.
    """
    return by_range(_stacked, S, cfg, counters, None, trace)


def _stacked(S, P, bounds, cfg, counters, trace):
    """The ``stacked_passes`` calls of :func:`sort_associative_recursive`
    on keys in ``[0, cfg.max_key]`` (``P`` is ``None``)."""
    n = len(S)
    L = np.empty(2 * LEVELS, dtype=np.int64)
    head, delta, depth = 0, bounds[0], 0
    stacked_passes, emit = active_loops().stacked_passes, hook(S, trace, counters.passes)
    while True:
        passes, moves, created, head, delta, depth, phase, status, *numbers = (
            stacked_passes(S, L, head, n, delta, bounds[1], depth, len(L) // 2, cfg.w, emit)
        )
        counters.passes += passes
        counters.moves += moves
        counters.node_creations += created
        counters.max_depth = max(counters.max_depth, depth)
        if phase != PHASE_OK:
            _fail(phase, status, *numbers)
        if head == n:
            return
        # In place (a realloc), so the old and the grown buffer are never
        # held at once; nothing else refers to ``L``.
        L.resize(len(L) + 2 * LEVELS, refcheck=False)
