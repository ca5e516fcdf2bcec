"""Timing that is corrected for the machine's changing speed.

On a host whose physical cores are shared, the speed of plain Python code
changes by a third or more from one second to the next, in CPU time as well
as wall time, so raw times of a 10 to 25 s pass spread by 15% to 30% from
run to run.  A `Speedometer` samples that speed while a region runs: every
`INTERVAL_S` a SIGALRM handler times a fixed `Fraction` kernel, and once more
just before and after the region.  `Speedometer.time` scales the region's
wall time by `REFERENCE_S` over the mean kernel time of those samples, which
gives seconds at a fixed reference speed.  The kernel uses only the standard
library, so a change to torusweights does not change it; the handler's own
cost (about 2% of the region) is part of every timed region alike.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05

# What `kernel` takes at the reference speed: its time in the fast phases of
# a 2-vCPU Intel Xeon host with Python 3.11.
REFERENCE_S = 0.00075


def kernel():
    """A fixed amount of `Fraction` arithmetic, like the library's inner loops."""
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return total


class Speedometer:
    """While active, samples the kernel's time every INTERVAL_S seconds."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        """Run `fn(*args)`; returns (reference-speed seconds, wall seconds, result)."""
        first = len(self.samples)
        self._sample()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self._sample()
        return wall * REFERENCE_S / statistics.fmean(self.samples[first:]), wall, result
