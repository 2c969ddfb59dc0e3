"""A fixed miniature cache simulation that measures the host's speed.

The VM the benchmark runs on slows down, for under a second or for
minutes at a time, and everything it runs slows with it.  A run
therefore also times this yardstick, between the operations it
measures, and rescales each host time by the yardstick timed on either
side of it.  Times are reported in nominal seconds: host seconds on a
host where the yardstick takes :data:`NOMINAL_S`.  The yardstick does
the same kind of work as the simulator (an event heap, set-associative
caches with per-line timestamps, attribute updates on small objects, a
working set of a few MB), so a host slowdown stretches both, while a
change to the simulator moves only the simulator's side.

A slowdown stretches the yardstick more than the simulator, though:
when the yardstick took ``k`` times its calm time, the simulator took
about ``k ** SLOWDOWN_EXPONENT`` times its own.  The exponent was fitted
on 60 runs of one commit, 20 per workload, made while the host ran from
calm to 1.8 times slower (run medians of the yardstick); dividing by
the whole ratio (exponent 1) over-corrects and leaves runs made in a
slow minute reading 5-9% fast.

Never change this module: its time is the unit of every host-time
metric, so changing it changes every baseline.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

#: host seconds one measurement takes on the 2-vCPU VM the benchmark
#: was calibrated on, when unloaded (a low percentile of its samples)
NOMINAL_S = 0.025
#: how a host slowdown of the yardstick carries over to the simulator
SLOWDOWN_EXPONENT = 0.75

SMS, WARPS = 16, 8
L1_SETS, L1_WAYS = 64, 4
L2_SETS, L2_WAYS = 4096, 16
ADDRESSES = 1 << 18
STEPS = 12000


class Line:
    __slots__ = ("tag", "wts", "rts")

    def __init__(self) -> None:
        self.tag = -1
        self.wts = self.rts = 0


class Cache:
    """Set-associative, round-robin replacement, lease-style hits."""

    def __init__(self, sets: int, ways: int) -> None:
        self.lines = [[Line() for _ in range(ways)] for _ in range(sets)]
        self.mask = sets - 1
        self.victim = [0] * sets
        self.hits = 0

    def reset(self) -> None:
        for row in self.lines:
            for line in row:
                line.tag = -1
                line.wts = line.rts = 0
        self.victim = [0] * len(self.lines)
        self.hits = 0

    def access(self, address: int, now: int, write: bool) -> bool:
        index = address & self.mask
        row = self.lines[index]
        for line in row:
            if line.tag == address:
                if line.rts >= now:
                    self.hits += 1
                    if write:
                        line.wts = line.rts = now + 1
                    return True
                line.rts = now + 10
                return False
        way = self.victim[index]
        self.victim[index] = (way + 1) % len(row)
        line = row[way]
        line.tag, line.wts, line.rts = address, now, now + 10
        return False


class Yardstick:
    """The yardstick's caches (built once) and the samples of a run.

    A caller takes a :meth:`mark` before what it times, makes sure of a
    :meth:`sample` after it, and converts the host seconds with
    :meth:`nominal`.
    """

    def __init__(self) -> None:
        self.l1s = [Cache(L1_SETS, L1_WAYS) for _ in range(SMS)]
        self.l2 = Cache(L2_SETS, L2_WAYS)
        #: host seconds of every measurement so far
        self.samples: List[float] = []
        #: host seconds spent measuring, so callers can take it out of
        #: the time they measure around it
        self.spent_s = 0.0
        self._last = -float("inf")

    def mark(self) -> int:
        return len(self.samples)

    def sample(self, least_gap_s: float = 0.0) -> None:
        """Measure once, unless the last measurement ended less than
        ``least_gap_s`` ago."""
        if time.perf_counter() - self._last >= least_gap_s:
            started = time.perf_counter()
            self.samples.append(self.measure())
            self._last = time.perf_counter()
            self.spent_s += self._last - started

    def nominal(self, seconds: float, start: int, end: int) -> float:
        """``seconds`` of host time, taken between the marks ``start``
        and ``end``, in nominal seconds: divided by the slowdown the
        samples from the last one before ``start`` to the first one
        after ``end`` show (their median over :data:`NOMINAL_S`), raised
        to :data:`SLOWDOWN_EXPONENT`."""
        around = self.samples[max(0, start - 1):end + 1]
        slowdown = statistics.median(around) / NOMINAL_S
        return seconds / slowdown ** SLOWDOWN_EXPONENT

    def measure(self) -> float:
        """Host seconds for one run of the yardstick.

        The collector is off while it runs, so that the size of the
        simulator's heap, which a collection would walk, cannot reach
        it.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._run()
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()

    def _run(self) -> int:
        for cache in self.l1s:
            cache.reset()
        self.l2.reset()
        events = [(warp, warp) for warp in range(SMS * WARPS)]
        x = 12345
        for _ in range(STEPS):
            now, warp = heapq.heappop(events)
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x & 3:       # mostly the warp's own neighbourhood
                address = warp * 256 + (x >> 8) % 1024
            else:
                address = (x >> 4) % ADDRESSES
            if self.l1s[warp % SMS].access(address, now, x & 8 == 0):
                delay = 1
            elif self.l2.access(address, now, False):
                delay = 20
            else:
                delay = 200
            heapq.heappush(events, (now + delay, warp))
        return self.l2.hits
