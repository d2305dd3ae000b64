"""Machine-speed calibration for host-time metrics.

A shared or virtualized host can change speed by a third for minutes
at a time (other tenants, frequency scaling), which moves every host
time by about the same factor whatever the program does.  A fixed kernel —
interpreted Python plus the NumPy gathers, reductions and BLAS dot
products the program's own hot paths use — is timed before and after
a serial workload's timed loop and between its ops; the ratio of its
median time to :data:`NOMINAL_KERNEL_S` is the run's *slowdown*.
Host-time metrics are divided by it, which expresses them at a nominal
machine speed; the raw values are printed beside.  A workload whose
clients run concurrently has no idle moment for the kernel, and a
kernel timed outside its loop was found not to track its speed, so it
reports raw host time.

The kernel is the benchmark's own code: no change to the program can
make it faster or slower.
"""

import time

import numpy as np

from perfbench.stats import median

#: Kernel median on the reference machine (2 vCPU Xeon, Python 3.11,
#: NumPy 2.4, OpenBLAS 0.3.31); a slowdown of 1.0 means that speed.
NOMINAL_KERNEL_S = 0.06

#: Kernel runs before and after each timed loop.
KERNEL_RUNS = 5

#: Least loop time between two kernel runs inside a serial loop.
EVERY_S = 1.0

_N = 200_000


def _arrays():
    rng = np.random.default_rng(20060101)
    return rng.random(_N), rng.random(_N), rng.integers(0, _N, _N)


def kernel(arrays):
    """One timed pass of the fixed kernel; returns seconds."""
    a, b, idx = arrays
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    for _ in range(20):
        gathered = a[idx]
        np.cumsum(b)
        np.dot(a, b)
        np.dot(a, gathered)
    return time.perf_counter() - start


class Calibration:
    """Kernel times collected around one run's timed loop."""

    def __init__(self):
        self._arrays = _arrays()
        self.samples = []
        self._last = time.perf_counter()

    def sample(self, runs=KERNEL_RUNS):
        self.samples += [kernel(self._arrays) for _ in range(runs)]
        self._last = time.perf_counter()

    def between_ops(self):
        """Run the kernel if :data:`EVERY_S` has passed since the last
        run; returns the seconds this call took."""
        start = time.perf_counter()
        if start - self._last < EVERY_S:
            return 0.0
        self.sample(1)
        return time.perf_counter() - start

    @property
    def slowdown(self):
        return median(self.samples) / NOMINAL_KERNEL_S
