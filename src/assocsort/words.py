"""Virtual word model: the word width, its masks, and the companion budget.

All sorters in this package operate on ``numpy.int64`` arrays whose
values are treated as *virtual words* of a configurable width ``w``.
The most significant bit of a virtual word is the **tag bit**: setting
it converts the word into a *node*, and the remaining ``w - 1`` bits
become the node's *record*.  Keys must therefore fit in ``w - 1`` bits,
i.e. lie in ``[0, 2**(w-1))``.

``w`` is capped at 63 so that a full virtual word (tag bit included)
still fits in a signed 64-bit integer; the arithmetic in the hot loops
never touches the host sign bit.
"""

from dataclasses import dataclass

from .errors import WordRangeError
from .kernels import pass_budget

MIN_WIDTH = 4
MAX_WIDTH = 63


@dataclass(frozen=True)
class WordConfig:
    """Fixed parameters of the virtual word.

    Attributes
    ----------
    w:
        Virtual word width in bits, ``MIN_WIDTH <= w <= MAX_WIDTH``.
    tag_mask:
        ``1 << (w - 1)``; the node tag bit.
    value_mask:
        ``tag_mask - 1``; masks the key/record bits of a word.
    """

    w: int
    tag_mask: int
    value_mask: int

    def __init__(self, w: int = MAX_WIDTH):
        if not MIN_WIDTH <= w <= MAX_WIDTH:
            raise WordRangeError(
                f"word width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {w}"
            )
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "tag_mask", 1 << (w - 1))
        object.__setattr__(self, "value_mask", (1 << (w - 1)) - 1)

    @property
    def max_key(self) -> int:
        """Largest sortable key: ``2**(w-1) - 1``."""
        return self.value_mask

    def pos_bits(self, n: int) -> int:
        """Bits needed to address a position in a segment of length ``n``:
        ``ceil(log2(n))``, at least 1, computed exactly in integers."""
        return max((int(n) - 1).bit_length(), 1)

    def pack_split(self, n: int) -> int:
        """Record bit-budget left for a count once a position is packed in.

        A node whose occurrence count fits below this split can carry its
        own former position inside the record; larger counts need a
        separate companion word during storage.
        """
        return self.w - 1 - self.pos_bits(n)


def epsilon(n: int, cfg: WordConfig) -> int:
    """Interval shrink needed so companion words can always be found.

    When positions of a segment of length ``n`` are addressable alongside
    any possible count inside one record (``2 * ceil(log2 n) < w``), no
    shrink is needed.  Otherwise the practiced interval is narrowed by
    ``eps`` and the subspace shifted ``eps`` slots right, so storage has
    both the slack and the idle words to give every overfull node a
    companion.

    A node is overfull when its count reaches ``thr = 2**(w-1-ceil(log2
    n))``, i.e. its key occupies at least ``thr + 1`` segment words, so
    at most ``n // (thr + 1)`` nodes can be overfull at once, and ``eps``
    is exactly that.  The paper's other term, ``ceil((n // 2) / thr)``, is
    never larger (:func:`assocsort.kernels.pass_budget` gives the proof),
    and alone it falls short for ``thr >= 2``, e.g. four keys of three
    occurrences each in a 12-word segment at ``w = 6``.
    :func:`~assocsort.kernels.pass_budget` computes ``eps``, in integers,
    for both this function and the pass loops.
    """
    if n < 1 or n > cfg.tag_mask:
        raise WordRangeError(f"segment length {n} not in [1, {cfg.tag_mask}]")
    return pass_budget(n, cfg.w)[0]
