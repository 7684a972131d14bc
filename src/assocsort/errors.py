"""Exception types raised by the sorting drivers."""


class AssocSortError(Exception):
    """Base class for all errors raised by this package."""


class WordRangeError(AssocSortError):
    """The input does not fit the configured virtual word width.

    Raised when the array is longer than the ``2**(w-1)`` addressable
    node slots, or a word width lies outside ``[4, 63]``; never by a key.
    """


class InputError(AssocSortError, ValueError):
    """The input is not a writable 1-D ``int64`` array (or, for a
    payload, not one of the keys' length that shares no memory with
    them).  Raised by the front door before any word is written."""


class DuplicateKeyError(AssocSortError):
    """A distinct-keys variant observed the same key twice.

    ``key`` is that key as the input held it, or ``None`` where the sorter
    cannot name it.  The array's content is unspecified after this error.
    """

    def __init__(self, message: str, key=None):
        super().__init__(message)
        self.key = key


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
