"""The discrete-event simulation engine.

Every timing component in the reproduction (SMs, NoC links, L2 banks,
DRAM partitions) advances time by scheduling callbacks on a single
shared :class:`Engine`.  The engine is strictly deterministic: events
fire by cycle, and events of one cycle fire in scheduling order, so
repeated runs of the same workload produce bit-identical statistics.

There is deliberately no per-cycle ``tick()`` loop — idle cycles are
skipped entirely by jumping the clock to the next scheduled event.
This is what makes a pure-Python cycle-level GPU model tractable.

The queue is one FIFO list per occupied cycle, kept in a dict keyed by
cycle, plus a ``heapq`` of the occupied cycles.  :meth:`Engine.post`
is the only code that queues an event: it appends to the cycle's list,
and only the first event of a cycle touches the heap.  :meth:`run`
drains a whole cycle's list in one loop; an event posted for the cycle
being drained joins the end of that list and fires in the same drain.

Entries are plain ``[time, callback, args]`` lists, returned as the
opaque handle.  :meth:`Engine.cancel` nulls the callback slot in
place, and firing does the same, so ``handle[1] is None`` reads "will
not fire".  A cancelled entry stays in its cycle's list and is freed
with the list when the drain passes that cycle; a cycle whose entries
were all cancelled is dropped without moving the clock.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

# The opaque handle returned by Engine.schedule: a queue entry of the
# form [time, callback, args].  A cancelled (or already-fired) entry
# has callback None.
EventHandle = List[Any]


class Engine:
    """A deterministic per-cycle event queue with an integer clock."""

    def __init__(self) -> None:
        # cycle -> that cycle's entries in scheduling order; every
        # listed cycle is in _cycles exactly once
        self._queue: Dict[int, List[EventHandle]] = {}
        self._cycles: List[int] = []    # heap of the keys of _queue
        self.now = 0
        self.events_fired = 0
        self._scheduled = 0             # total ever scheduled
        self._cancelled = 0             # total ever cancelled
        # observability: called as hook(time, callback) for every event
        # fired.  Must not schedule or cancel anything — it observes the
        # dispatch stream (metrics sampling, engine tracing) without
        # perturbing it.
        self.hook: Optional[Callable[[int, Callable], None]] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` cycles from now.

        ``delay`` must be non-negative; a zero delay fires later in the
        current cycle, after all previously scheduled current-cycle
        events.  Returns a handle accepted by :meth:`cancel`; the
        handle's ``[0]`` element is the absolute fire time.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.post(self.now + delay, callback, args)

    def at(self, time: int, callback: Callable[..., None],
           *args: Any) -> EventHandle:
        """Schedule ``callback`` at an absolute cycle (>= now)."""
        if time < self.now:
            raise ValueError(f"negative delay: {time - self.now}")
        return self.post(time, callback, args)

    def post(self, time: int, callback: Callable[..., None],
             args: tuple = ()) -> EventHandle:
        """Queue ``callback(*args)`` at absolute cycle ``time``.

        Takes the argument tuple directly (no varargs repacking) and
        trusts the caller that ``time >= now`` — the NoC, DRAM and L2
        pipelines compute arrival times from ``now`` plus non-negative
        latencies, so the guard in :meth:`at` would never fire there.
        """
        event = [time, callback, args]
        self._scheduled += 1
        bucket = self._queue.get(time)
        if bucket is None:
            self._queue[time] = [event]
            heappush(self._cycles, time)
        else:
            bucket.append(event)
        return event

    def cancel(self, event: EventHandle) -> None:
        """Prevent a scheduled event from firing.

        Safe to call more than once, and safe after the event has
        fired (both are no-ops).  The handle must come from this
        engine.
        """
        if event[1] is not None:
            event[1] = None
            self._cancelled += 1

    @staticmethod
    def cancelled(event: EventHandle) -> bool:
        """Whether this event will no longer fire (cancelled or fired)."""
        return event[1] is None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def peek(self) -> Optional[int]:
        """Return the time of the next pending event, or None if empty.

        Drops the all-cancelled cycles it passes on the way.
        """
        queue = self._queue
        cycles = self._cycles
        while cycles:
            c = cycles[0]
            for event in queue[c]:
                if event[1] is not None:
                    return c
            heappop(cycles)
            del queue[c]
        return None

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._scheduled - self.events_fired - self._cancelled

    def counters(self) -> dict:
        """Dispatch counters under their canonical ``engine_*`` names.

        Deliberately *not* part of ``RunStats.counters``: these
        describe the queue, not the simulated machine.  ``repro
        profile`` and the benchmark aggregate them across fresh
        simulations (see ``repro.stats.names.ENGINE_COUNTERS``).
        """
        return {
            "engine_events_scheduled": self._scheduled,
            "engine_events_fired": self.events_fired,
            "engine_cancelled": self._cancelled,
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        queue = self._queue
        cycles = self._cycles
        while cycles:
            c = cycles[0]
            for event in queue[c]:
                callback = event[1]
                if callback is not None:
                    event[1] = None
                    self.now = c
                    self.events_fired += 1
                    if self.hook is not None:
                        self.hook(c, callback)
                    callback(*event[2])
                    return True
            heappop(cycles)
            del queue[c]
        return False

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when the queue is empty, when the clock would pass
        ``until``, or after ``max_events`` events (a safety valve for
        tests against livelock).  Returns the final clock value.
        """
        if until is not None or max_events is not None:
            return self._run_bounded(until, max_events)
        queue = self._queue
        cycles = self._cycles
        hook = self.hook
        fired = 0
        try:
            while cycles:
                c = cycles[0]
                bucket = queue[c]
                # a list iterator re-reads the length on every step, so
                # events the callbacks post for this cycle fire here
                # too; the clock moves only when an event fires, so a
                # cycle whose entries were all cancelled leaves it alone
                if hook is None:
                    for event in bucket:
                        callback = event[1]
                        if callback is not None:
                            event[1] = None
                            self.now = c
                            fired += 1
                            callback(*event[2])
                else:
                    # the hook may read pending(), so count as we go
                    for event in bucket:
                        callback = event[1]
                        if callback is not None:
                            event[1] = None
                            self.now = c
                            self.events_fired += 1
                            hook(c, callback)
                            callback(*event[2])
                heappop(cycles)
                del queue[c]
        finally:
            # the hook-free drain counts in a local and books it once
            self.events_fired += fired
        return self.now

    def _run_bounded(self, until: Optional[int],
                     max_events: Optional[int]) -> int:
        queue = self._queue
        cycles = self._cycles
        fired = 0
        while cycles:
            c = cycles[0]
            if until is not None and c > until:
                if self.peek() is not None:
                    self.now = until
                break
            for event in queue[c]:
                callback = event[1]
                if callback is None:
                    continue
                if max_events is not None and fired >= max_events:
                    # leave the rest of the cycle queued
                    raise RuntimeError(
                        f"engine exceeded {max_events} events "
                        f"at cycle {self.now}"
                    )
                event[1] = None
                self.now = c
                self.events_fired += 1
                fired += 1
                if self.hook is not None:
                    self.hook(c, callback)
                callback(*event[2])
            heappop(cycles)
            del queue[c]
        return self.now
