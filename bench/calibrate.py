"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small virtual machine the speed a process gets drifts by tens of
percent over tens of seconds, invisibly to the guest (no steal time is
reported).  The benchmark therefore runs a fixed exact-arithmetic kernel
between configs and scales every time it reports by ``K_REF / k``, where
``k`` is the kernel time measured next to it.  Reported times are thus
"seconds at reference speed": the wall time the same work would take on a
host where the kernel takes ``K_REF``.  Raw wall times are printed too.

The kernel is Gaussian elimination over ``Fraction`` on a fixed 12x12
matrix: the same mix of rational arithmetic, small-object allocation and
list building that dominates berkvol, and none of berkvol's code, so a
change to the package cannot change the kernel.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction
from typing import List

#: Kernel time on the reference host (2-core VM, kernel interleaved with
#: the workload).  Only a scale: it turns kernel units back into seconds.
K_REF = 0.004

#: Minimum workload time between two kernel samples.
INTERVAL = 0.25

_N = 12
_BASE = [[Fraction(1, i + j + 1) + (2 if i == j else 0) for j in range(_N)] for i in range(_N)]


def kernel() -> Fraction:
    """Determinant of the fixed matrix by exact elimination."""
    A = [row[:] for row in _BASE]
    det = Fraction(1)
    for k in range(_N):
        det *= A[k][k]
        inv = 1 / A[k][k]
        for i in range(k + 1, _N):
            f = A[i][k] * inv
            A[i] = [x - f * y for x, y in zip(A[i], A[k])]
    return det


def kernel_time() -> float:
    """One timed kernel run, with the cyclic collector off so a collection
    of the workload's garbage is not charged to the kernel."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Speedometer:
    """Kernel samples taken between the executions of a pass."""

    def __init__(self) -> None:
        self.at: List[int] = []  # index of the execution that follows each sample
        self.k: List[float] = []
        self._busy = INTERVAL

    def before(self, index: int, last_latency: float) -> None:
        """Call before execution `index`; samples once per INTERVAL of work."""
        self._busy += last_latency
        if self._busy >= INTERVAL:
            self.at.append(index)
            self.k.append(kernel_time())
            self._busy = 0.0

    def scale(self, index: int) -> float:
        """K_REF over the median of the five samples nearest execution `index`."""
        j = max(bisect.bisect_right(self.at, index) - 1, 0)
        near = self.k[max(j - 2, 0): j + 3]
        return K_REF / statistics.median(near)

    def median_kernel(self) -> float:
        return statistics.median(self.k)
