"""Operation counters shared by every sorting driver."""

from dataclasses import dataclass


@dataclass
class OpCounters:
    """Tallies of the work a sort performed.

    passes
        Number of practicing passes over the (shrinking) unsorted segment.
    moves
        Word (or element) copies written to the array.  A swap counts as
        two moves; node-record increments are not moves.
    node_creations
        Number of words converted into tagged nodes across all passes.
    max_depth
        High-water mark of the control stack for the recursive driver
        (levels outstanding at once); 0 for single-level drivers.
    """

    passes: int = 0
    moves: int = 0
    node_creations: int = 0
    max_depth: int = 0
