"""The machine's current speed, from a fixed reference kernel.

The benchmark shares its cores with other tenants, and their load changes
its speed by up to a third over minutes: the same Picard solve at 128
panels takes 80 ms in one minute and 120 ms two minutes later.  Medians
cannot remove a slowdown that lasts the whole run.  So each run times a
fixed kernel that uses no package code, interleaved with its operations,
and scales every timing by REFERENCE_S over the kernel's local median.  A
scaled time is the time the operation would take where the kernel takes
REFERENCE_S; on a quiet machine it is close to the wall time.
"""

import bisect
import statistics
import time

import numpy as np

# Kernel time that scaled timings refer to: about its time on a quiet
# Xeon vCPU (Python 3.11, numpy 2.4).
REFERENCE_S = 0.015
# Reference samples within this many seconds of an operation set its scale.
WINDOW_S = 5.0
# Shortest gap between two reference samples.
GAP_S = 0.5

_N = 200_000
_X = np.linspace(0.0, 1.0, _N)
_TABLE = np.sin(np.linspace(0.0, 1.0, 513))
_INDEX = (_X * 512).astype(np.intp)
_STARTS = np.arange(0, _N, 300)
# Preallocated results: the kernel allocates nothing, so its time does not
# depend on the state of the benchmark process's heap.
_A = np.empty(_N)
_B = np.empty(_N)
_SUMS = np.empty(_STARTS.size)


def kernel() -> float:
    """Run the reference kernel once; return its wall time.

    A Python loop, as in expression evaluation and the theorem checks, and
    array passes of the kind the operator makes (table lookups, segmented
    sums, elementwise functions).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    for _ in range(5):
        np.take(_TABLE, _INDEX, out=_A)
        np.multiply(_A, _X, out=_B)
        np.add.reduceat(_B, _STARTS, out=_SUMS)
        np.exp(_A, out=_B)
    return time.perf_counter() - t0


class Speed:
    """Reference samples taken during one run."""

    def __init__(self):
        self.at = []       # perf_counter time of each sample
        self.seconds = []  # kernel time of each sample
        kernel()  # first touch of the result arrays; not a sample

    def sample(self, force: bool = False) -> None:
        """Time the kernel, unless the last sample is under GAP_S old."""
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= GAP_S:
            self.seconds.append(kernel())
            self.at.append(now)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a wall time over [start, end] into a scaled one."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return REFERENCE_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(self.seconds)
