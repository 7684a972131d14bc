"""The input front door, the pass loop, and the counting variant.

Every sorter enters through :func:`check_words`, which refuses malformed
input before any word is written and scans the keys' minimum once.  It
then makes one call of its *pass loop* (:func:`run_loop`), which runs
every pass on the unsorted segment ``S[head:]`` until nothing is left.
Each pass starts at the smallest key its predecessor deferred, so no
pass rescans for a minimum.  A failed check is raised through the
driver's ``_fail``.  Traced or not, a sort runs the loop of its backend;
a traced one hands it a hook that gives the trace a snapshot after each
phase (see :func:`hook`).

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
from .errors import CorruptStateError, InputError, WordRangeError
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
# array after each phase.  If it raises, the sort stops at that phase and
# raises that exception, and the array's content is unspecified.
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
    S: np.ndarray,
    cfg: WordConfig,
    P: Optional[np.ndarray] = None,
    max_key: Optional[int] = None,
) -> Optional[tuple]:
    """The front door of every sorter: validate before any word is written.

    Refuses with :class:`~assocsort.errors.InputError` anything but a
    writable 1-D ``int64`` array, and for a payload ``P`` one of the same
    kind and length that shares no memory with the keys.  Then checks the
    array length against the word model's node slots and the keys against
    ``[0, max_key]`` (``cfg.max_key`` unless given), with
    :class:`~assocsort.errors.WordRangeError`.  Returns the keys'
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
    if max_key is None:
        max_key = cfg.max_key
    mn, mx = active().min_max(S, 0, n)
    if mn < 0 or mx > max_key:
        raise WordRangeError(f"keys must lie in [0, {max_key}], saw [{mn}, {mx}]")
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
    args: tuple = (),
    top: bool = False,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort ``S`` (carrying ``P``) in place in one call of the active
    backend's pass loop named ``loop``.

    The loop takes the arrays, the segment ``0, len(S)``, the minimum the
    front door scanned (and, if ``top``, the maximum), ``args`` and the
    :func:`hook` of ``trace``, and returns ``(passes, moves,
    node_creations, head, phase, status, *numbers)``.  Its counters are
    added to ``counters``; a failed check is raised by ``fail(phase,
    status, *numbers)``.
    """
    cfg, counters, bounds = start(S, cfg, counters, P)
    if bounds is None:
        return counters
    arrays = (S,) if P is None else (S, P)
    passes, moves, created, _, phase, status, *numbers = getattr(active_loops(), loop)(
        *arrays, 0, len(S), *bounds[: 1 + top], *args, hook(S, trace, counters.passes)
    )
    counters.passes += passes
    counters.moves += moves
    counters.node_creations += created
    if phase != PHASE_OK:
        fail(phase, status, *numbers)
    return counters


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


def sort_associative(
    S: np.ndarray,
    cfg: Optional[WordConfig] = None,
    counters: Optional[OpCounters] = None,
    trace: Optional[TraceFn] = None,
) -> OpCounters:
    """Sort ``S`` in place, one practice/store/retrieve cycle per pass."""
    cfg = cfg or WordConfig()
    return run_loop("sequential_passes", _fail, S, cfg, counters, args=(cfg.w,),
                    top=True, trace=trace)


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
    cfg, counters, bounds = start(S, cfg, counters)
    if bounds is None:
        return counters
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
            return counters
        # In place (a realloc), so the old and the grown buffer are never
        # held at once; nothing else refers to ``L``.
        L.resize(len(L) + 2 * LEVELS, refcheck=False)
