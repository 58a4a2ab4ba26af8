"""Host-speed calibration for the benchmark's timings.

The shared 2-core VM the benchmark was sized on changes speed by up to 1.7x
over seconds to minutes, in CPU time as much as in wall time, and not for
every kind of work at once: in some minutes pure-Python code slows down
while numpy work on large arrays does not, in others the reverse.  A wall
time alone therefore measures the host's state as much as the program.

``HostSpeed`` times a fixed reference kernel between the benchmark's timed
stretches, at least every ``EVERY_S`` seconds, and converts each measured
time to *reference seconds*: the time multiplied by the kernel's reference
time over the median of the kernel times taken just before and just after
it.  After a long stretch the kernel runs several times, so that one sample
taken with cold caches does not set the scale.  The kernels are the
benchmark's own code, so a change to mapprune moves the program's times and
not the kernel's.  Each kind of timing is scaled by the kernel of its own
kind of work, or not at all where no kernel followed it (see
``workloads.KERNEL`` and ``workloads.SETUP_KERNEL``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Longest stretch between two kernel samples, in seconds.
EVERY_S = 0.5
# Most kernel runs in one sample, taken after stretches of MAX_RUNS * EVERY_S.
MAX_RUNS = 5


def small_arrays() -> None:
    """Python loop over tiny numpy operations, like TRW-S message passing."""
    rng = np.random.default_rng(0)
    table, x = rng.random((4, 4)), rng.random(4)
    for _ in range(4000):
        x = np.minimum(x, (table + x[:, None]).min(axis=0)) * 0.5


def python_loop() -> None:
    """Pure-Python dict work, like instance generation and UAI writing."""
    d: dict[int, int] = {}
    for i in range(150000):
        d[i % 97] = d.get(i % 97, 0) + i


# name -> (kernel, its median time in seconds on the 2-core Intel Xeon VM the
# benchmark was sized on, Python 3.11, numpy 2.4).  The reference times are
# fixed, so that reference seconds stay comparable between commits and runs.
KERNELS = {
    "small_arrays": (small_arrays, 0.026),
    "python_loop": (python_loop, 0.020),
}


class HostSpeed:
    """Kernel samples taken between timed stretches, and the scaling they give.

    A sample is one or more kernel runs in a row; ``samples[i]`` holds their
    wall times.  With ``kernel=None`` nothing is sampled and every scale is
    1: the times stay wall seconds.
    """

    def __init__(self, kernel: str | None, every_s: float = EVERY_S):
        self.name = kernel
        self.every_s = every_s
        self.samples: list[list[float]] = []
        self.spent_s = 0.0  # wall time spent running the kernel
        if kernel is not None:
            self.kernel, self.ref_s = KERNELS[kernel]
            self.kernel()  # warm up: first-call costs are not host speed
        self._last = time.perf_counter() - MAX_RUNS * every_s  # first sample: MAX_RUNS runs

    def mark(self, force: bool = False) -> int:
        """Call right before a timed stretch, and once after the last: the
        index of the latest sample, taking a new one first when ``every_s``
        has passed since the last (or ``force``)."""
        if self.name is None:
            return -1
        gap = time.perf_counter() - self._last
        if gap >= self.every_s or force:
            times = []
            for _ in range(max(1, min(MAX_RUNS, int(gap / self.every_s)))):
                t0 = time.perf_counter()
                self.kernel()
                self._last = time.perf_counter()
                times.append(self._last - t0)
            self.samples.append(times)
            self.spent_s += sum(times)
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        """Reference seconds per measured second for a stretch timed between
        sample ``mark`` and the next one."""
        if self.name is None:
            return 1.0
        after = self.samples[min(mark + 1, len(self.samples) - 1)]
        return self.ref_s / statistics.median(self.samples[mark] + after)

    def summary(self) -> dict:
        if self.name is None:
            return {"kernel": None}
        s = sorted(t for times in self.samples for t in times)
        return {"kernel": self.name, "kernel_s_median": s[len(s) // 2], "kernel_s_min": s[0],
                "kernel_s_max": s[-1], "runs": len(s), "ref_kernel_s": self.ref_s}
