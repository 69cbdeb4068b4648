"""Host-speed calibration: scale wall times to a fixed reference speed.

The speed of a small shared host changes on its own, by up to 1.5x, in
phases that last from seconds to minutes; a wall time then says as much
about the neighbours as about the program.  A fixed calibration kernel,
timed right before and right after each operation, slows down with the
operation.  An operation's scaled time is

    wall time * reference kernel time / mean(kernel time before, after)

that is, the wall time the operation would take on a host where the kernel
runs in its reference time.  The kernels use nothing from rvnorms, so a
change to the program moves the operation's time and not the kernel's.

Two kernels cover the two kinds of work the workloads do: ``python``
(pure-interpreter complex and Fraction arithmetic, dicts and lists, as in
the matrix and partition code) and ``numpy`` (vectorised sampling and
reductions, as in the Monte Carlo oracle).  A workload is calibrated with
the kernels that match its work; with both, their times are summed.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_A = [[complex(i + 1, j - 2) for j in range(8)] for i in range(8)]
_F = [Fraction(i, i + 3) for i in range(1, 40)]
_LAM = np.linspace(-1.0, 1.0, 8)


def _python_kernel() -> None:
    for _ in range(5):
        [[sum(_A[i][k] * _A[k][j] for k in range(8)) for j in range(8)] for i in range(8)]
        sum(_F)
        {k: k * k for k in range(300)}


def _numpy_kernel() -> None:
    # one block of the oracle's shape: Philox draws, a product, a power, sums
    rng = np.random.Generator(np.random.Philox(key=7))
    y = np.abs(rng.standard_normal((16384, 8)) @ _LAM) ** 6
    float(np.sum(y))
    float(np.sum(y * y))


# Kernel and its reference time in ms, about its time in the fast phase of the
# 2-vCPU host the benchmark's reference figures come from.
KERNELS = {
    "python": (_python_kernel, 1.0),
    "numpy": (_numpy_kernel, 2.2),
}


class HostClock:
    """Times the chosen kernels; ``scale`` turns a wall time into the time at
    reference speed from the kernel times measured around it."""

    def __init__(self, kinds: tuple):
        self.kernels = [KERNELS[k][0] for k in kinds]
        self.reference_ms = sum(KERNELS[k][1] for k in kinds)
        self.sample()  # the first call runs cold

    def sample(self) -> float:
        """Milliseconds the kernels take now."""
        start = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        return (time.perf_counter() - start) * 1e3

    def scale(self, seconds: float, before_ms: float, after_ms: float) -> float:
        return seconds * self.reference_ms * 2.0 / (before_ms + after_ms)
