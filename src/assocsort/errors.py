"""Exception types raised by the sorting drivers."""


class AssocSortError(Exception):
    """Base class for all errors raised by this package."""


class WordRangeError(AssocSortError):
    """Input words do not fit the configured virtual word width.

    Raised when a key is negative, when a key occupies the tag bit
    (i.e. ``key >= 2**(w-1)`` for the tagged variants), or when the
    array is longer than the number of addressable node slots.
    """


class InputError(AssocSortError, ValueError):
    """The input is not a writable 1-D ``int64`` array (or, for a
    payload, not one of the keys' length that shares no memory with
    them).  Raised by the front door before any word is written."""


class DuplicateKeyError(AssocSortError):
    """A distinct-keys variant observed the same key twice."""


class CorruptStateError(AssocSortError):
    """An internal invariant failed mid-sort.

    This always indicates a bug (or concurrent mutation of the array),
    never a property of the input: input problems raise
    :class:`InputError` or :class:`WordRangeError` before any word is
    written, and repeated keys raise :class:`DuplicateKeyError`.
    """


class VerificationError(AssocSortError):
    """Benchmark verification found a divergence from the reference sort."""

    def __init__(self, message: str, index: int = -1):
        super().__init__(message)
        self.index = index
