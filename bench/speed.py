"""The machine's own speed, read from a fixed pure-Python loop, and timings
rescaled to a reference speed.

The CPU this benchmark runs on changes speed in plateaus lasting seconds to
tens of seconds: the same loop takes 7.5 ms in one and 13 ms in another, and
CPU time tracks wall time, so this is the CPU itself, not scheduling.  While
a run times its operations, a timer signal times a fixed loop every
TICK_EVERY_S, in the same thread, and each operation's time, less the ticks
taken inside it, is rescaled by the mean of REFERENCE_LOOP_S / (loop time)
over the ticks around it.  The loop is the benchmark's own code and touches
nothing of congrlab, so a slower congrlab reads slower at any machine speed.
Raw times are kept in the run's results file.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# Rescaled times are seconds on a CPU that runs loop() in this time; the
# 2-vCPU Xeon of the README's reference figures took 0.26-0.42 ms (10th to
# 90th percentile of its ticks).
REFERENCE_LOOP_S = 0.0004
# A tick every TICK_EVERY_S; an operation is rescaled by the ticks at most
# WINDOW_S away from it.
TICK_EVERY_S = 0.1
WINDOW_S = 0.5

# Tuple-keyed dict lookups, the kind of work congrlab is made of.  Rescaled
# by an integer loop instead, runs spread up to 4 times more; by lookups
# that also built frozensets, the loop's time moved with the size of the
# heap, which congrlab's caches change.
_TABLE = {(i, i * 7 % 100): i for i in range(5000)}
_KEYS = list(_TABLE)[::3]


def loop() -> float:
    """Seconds for two passes of fixed lookups, which build no container and
    keep nothing alive."""
    t0 = perf_counter()
    total = 0
    for _ in range(2):
        for key in _KEYS:
            total += _TABLE[key]
    return perf_counter() - t0


def tick() -> tuple[float, float]:
    """(time stamp, the median of three loops) at this moment."""
    at = perf_counter()
    return at, statistics.median(loop() for _ in range(3))


class Ticks:
    """Ticks in time order; scale() rescales an interval's duration."""

    def __init__(self):
        self.at = []
        self.loop_s = []
        self.took_s = []  # the tick's own duration

    def add(self, *_signal_args):
        at, loop_s = tick()
        self.at.append(at)
        self.loop_s.append(loop_s)
        self.took_s.append(perf_counter() - at)

    def start(self):
        """A tick now, then one every TICK_EVERY_S until stop()."""
        self.add()
        signal.signal(signal.SIGALRM, self.add)
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.add()

    def raw(self, start: float, end: float) -> float:
        """The interval's duration less the ticks taken inside it."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        return end - start - sum(self.took_s[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """The mean of REFERENCE_LOOP_S / (loop time) over the ticks within
        WINDOW_S of [start, end], and always the nearest before and after."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(self.at, start) - 1))
        hi = max(hi, min(len(self.at), bisect.bisect_right(self.at, end) + 1))
        return statistics.fmean(REFERENCE_LOOP_S / x for x in self.loop_s[lo:hi])

    def scale(self, start: float, end: float) -> float:
        return self.raw(start, end) * self.factor(start, end)
