"""A gauge of the machine's speed, to put timings taken at different moments
on one scale.

The benchmark's machine is shared, and its speed moves in phases: the same
work takes up to about 1.6 times as long for a few seconds at a time, and
the share of slow phases drifts over minutes, so a mean or percentile of raw
times moves with the phases a run happened to meet.  The client therefore
takes a *reading* between CLI calls and, within a stream, between rows at
least ``EVERY_S`` apart: it times a fixed piece of work written here,
independent of the package, that does what a prefix beam search does
(string prefixes in a dict, log-adds, a sort).  A span of the program is
scaled by ``TICK_MS`` over the mean reading around it.  A time on this scale
reads in milliseconds of a machine on which one tick takes ``TICK_MS``.

Readings are client time, left out of every latency and busy time.
"""

from __future__ import annotations

import bisect
import math
from time import perf_counter

# A scaled time is what the span would take on a machine where one tick
# takes this long (about the fast phases of the machine it was written on).
TICK_MS = 1.5
# Least time between readings within a stream.
EVERY_S = 0.05
# Ticks per reading within a stream, and between CLI calls, where a reading
# stands for all of a call that may last a second; a reading is their mean.
TICKS = 2
CALL_TICKS = 6

_WIDTH = 24
_SYMBOLS = "abcdefghijklmnopqrstuvwxyz '"
_ROW = [math.log((0.5 + i / len(_SYMBOLS)) / (len(_SYMBOLS) + 1))
        for i in range(len(_SYMBOLS) + 1)]


def _log_add(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def tick_work(steps: int = 4) -> int:
    """The fixed work of one tick: ``steps`` steps of a toy prefix beam."""
    beam = [("", 0.0)]
    blank = _ROW[-1]
    for _ in range(steps):
        acc: dict[str, float] = {}
        for prefix, lp in beam:
            acc[prefix] = _log_add(acc.get(prefix, -1e30), lp + blank)
            for i, c in enumerate(_SYMBOLS):
                key = prefix[-12:] + c
                old = acc.get(key)
                acc[key] = lp + _ROW[i] if old is None else _log_add(old, lp + _ROW[i])
        beam = sorted(acc.items(), key=lambda e: (-e[1], e[0]))[:_WIDTH]
    return len(beam)


class Gauge:
    """Readings over a run, and the scale factor for a span of it."""

    def __init__(self):
        self.at: list[float] = []      # when each reading ended
        self.tick_s: list[float] = []  # its mean tick time
        self.last = float("-inf")

    def read(self, ticks: int = TICKS) -> float:
        """Take one reading; returns the seconds it took, for the caller to
        count as client time."""
        t0 = perf_counter()
        for _ in range(ticks):
            tick_work()
        t1 = perf_counter()
        self.at.append(t1)
        self.tick_s.append((t1 - t0) / ticks)
        self.last = t1
        return t1 - t0

    def read_if_due(self) -> float:
        """A reading if ``EVERY_S`` passed since the last one, else none."""
        return self.read() if perf_counter() - self.last >= EVERY_S else 0.0

    def factor(self, start: float, end: float) -> float:
        """The scale factor of ``[start, end]``: ``TICK_MS`` over the mean of
        the readings within it, the last one before and the first one after;
        1.0 with no readings."""
        if not self.tick_s:
            return 1.0
        lo = max(0, bisect.bisect_left(self.at, start) - 1)
        hi = bisect.bisect_right(self.at, end) + 1
        ticks = self.tick_s[lo:hi]
        return TICK_MS / (1e3 * sum(ticks) / len(ticks))
