"""Machine-speed calibration.

On the 2-vCPU 2.1 GHz Xeon virtual machine the baseline was measured on,
the CPU switches between a fast and a slow state (about 1.7x apart) many
times a second, with no sign in process CPU time or steal time: work and
wall time slow down together.  Raw latencies then depend more on the
machine's state during a run than on the code.

A fixed kernel of exact-rational and tuple/dict work, the kind of work
logcharts does, is therefore timed every INTERVAL_S seconds from a SIGALRM
handler, also in the middle of an operation.  Work done by a child process
is bracketed by samples taken just before and after it instead, on the
same CPU (run.py pins the benchmark's processes to one CPU), because a
sample taken while the child runs would compete with it.  The samples'
own time is subtracted from the operation's latency, and the latency is
scaled by (REFERENCE_S / median kernel time around the operation) to the
power SENSITIVITY, so that latencies read in seconds at one fixed
reference speed.  The kernel is the benchmark's own and does not use
logcharts, so no change to logcharts moves it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Kernel time that defines the reference speed: the fast state of a
# 2.1 GHz Xeon with Python 3.11.
REFERENCE_S = 0.0020
# How strongly logcharts work follows the kernel between the two states:
# regressing log op latency on log kernel time, op by op over repeated
# cycles, gave slopes 0.85 (compare), 0.95 (torsor) and 0.92 (charts).
SENSITIVITY = 0.9
# Kernel sampling period.
INTERVAL_S = 0.1
# An op is scaled by the median of the samples taken during it and within
# this many seconds of it.
WINDOW_S = 0.2


def kernel():
    """Rational arithmetic, then a dict of small tuples: the mix of
    logcharts' simplex, exponent enumeration and congruence checks."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 1)
    seen = {}
    for a in range(12):
        for b in range(12):
            for c in range(12):
                key = (a, b, c, (a + b + c) % 5)
                seen[key] = seen.get(key, 0) + a
    picked = [key for key in seen if key[3] == 1]
    return acc, len(picked)


class Speedometer:
    """Kernel samples, taken by a timer signal while the process works (use
    as a context manager around the measured code) or by calling sample().

    ``spent`` is the total time the samples have taken; callers subtract
    its growth over an interval from that interval's wall time.
    """

    def __init__(self):
        self.at: list[float] = []
        self.samples_s: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.at.append(t0)
            self.samples_s.append(t1 - t0)
            self.spent += time.perf_counter() - t0
        finally:
            self._busy = False

    def _handler(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, t0: float, t1: float) -> float:
        """The scale factor to reference speed for an op over [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if hi - lo < 3:
            # Too few samples in the window: take the nearest three.
            mid = bisect.bisect_left(self.at, (t0 + t1) / 2)
            lo, hi = max(0, mid - 2), min(len(self.at), mid + 1)
            lo = max(0, min(lo, hi - 3))
        return (REFERENCE_S / statistics.median(self.samples_s[lo:hi])) ** SENSITIVITY
