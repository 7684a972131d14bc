"""The calibration loop that the benchmark's times are scaled by.

It is a fixed scalar scan over an int64 array: the same kind of work as
the plain backend's kernels, but the benchmark's own code, so no change
to the package moves it.  Timed beside the work it calibrates, it slows
by the same factor when the machine does, and the ratio of the two stays
put.  One *cal* is one run of it.
"""

import time

import numpy as np

# Fixed conversion from cal to seconds, for the one metric that must read
# in seconds (``setup_s``): the loop's wall time on the machine the
# reference figures in the README were measured on, rounded.
CAL_REF_S = 0.008

_WORDS = np.arange(40_000, dtype=np.int64)[::-1].copy()


def calibrate() -> int:
    """Wall time, in ns, of one run of the calibration loop."""
    S = _WORDS
    t0 = time.perf_counter_ns()
    mn, acc = S[0], 0
    for i in range(1, len(S)):
        v = S[i]
        if v < mn:
            mn = v
        acc += v & 7
    return time.perf_counter_ns() - t0
