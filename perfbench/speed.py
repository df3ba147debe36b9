"""The machine's current speed, for scaling wall times to a fixed speed.

The benchmark runs on a small virtual machine shared with other tenants,
whose speed drifts by up to 2x over seconds to minutes; process
CPU time drifts alike, and a slow stretch slows every operation, not just
some. A fixed pure-Python kernel timed during each measurement shows the
drift, and scaling by it removes most of it from the benchmark's times.
"""

from __future__ import annotations

import signal
import tracemalloc
from time import perf_counter

KERNEL_LOOPS = 20_000
# The kernel's time on the machine the benchmark was defined on (2 vCPUs,
# Python 3.11) in a quiet moment; it only sets the scale of scaled times.
REFERENCE_KERNEL_S = 0.00125


def kernel_seconds() -> float:
    """Best of three timings of a fixed pure-Python loop that allocates an
    int per step, as most of the program's Python code does."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        x = 0
        for j in range(KERNEL_LOOPS):
            x += j * j
        best = min(best, perf_counter() - t0)
    return best


def scaled(seconds: float, kernel_s: float) -> float:
    """A wall time converted to the reference speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


class ScaledClock:
    """Times a block twice: wall seconds, and seconds at the reference speed.

    A slow stretch can start and end inside one long command, so the kernel
    is timed every PERIOD seconds from a SIGALRM handler as well as at both
    ends, and each interval is scaled by the kernel times at its ends. The
    handler's own time is left out of both figures.
    """

    PERIOD = 0.25

    def __enter__(self):
        self.raw = self.seconds = 0.0
        self._kernel = kernel_seconds()
        self._mark = perf_counter()
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def _tick(self, *_):
        now = perf_counter()
        # tracemalloc slows the kernel's allocations; while it runs (in
        # traced passes only), the last kernel time stands
        kernel = self._kernel if tracemalloc.is_tracing() else kernel_seconds()
        interval = now - self._mark
        self.raw += interval
        self.seconds += scaled(interval, (self._kernel + kernel) / 2)
        self._kernel = kernel
        self._mark = perf_counter()

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._tick()
        return False
