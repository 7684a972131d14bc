"""Virtual word model: the word width and its masks.

All sorters in this package operate on ``numpy.int64`` arrays whose
values are treated as *virtual words* of a configurable width ``w``.
The most significant bit of a virtual word is the **tag bit**: setting
it converts the word into a *node*, and the remaining ``w - 1`` bits
become the node's *record*.  The pass loops therefore sort keys that fit
in ``w - 1`` bits, i.e. lie in ``[0, 2**(w-1))``; ``core.by_range``
shifts or splits any other ``int64`` keys into that range first.

``w`` is capped at 63 so that a full virtual word (tag bit included)
still fits in a signed 64-bit integer; the arithmetic in the hot loops
never touches the host sign bit.
"""

from dataclasses import dataclass

from .errors import WordRangeError

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
        """Largest key a pass loop sorts: ``2**(w-1) - 1``."""
        return self.value_mask
