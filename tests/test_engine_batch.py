"""The per-cycle queue fires exactly like a pure heap.

``HeapEngine`` below is the reference: one ``heapq`` of
``[time, seq, callback, args]`` entries popped in (time, seq) order,
with lazy cancel.  Seeded random schedules run on it and on
:class:`Engine`, and the firing logs, the clock after every bounded
run and the pending counts must agree.  The schedules post zero-delay
events from callbacks, reach far into the future, cancel events
(including later events of the cycle being drained) and interleave
``run(until=...)`` with more scheduling.

Also pins the parts of the contract the simulator leans on: the handle
layout that ``gpu/sm.py`` and ``gpu/warp.py`` read, and that bounded
runs free every cancelled entry they pass.
"""

import gc
import heapq
import random
import weakref

import pytest

from repro.sim.engine import Engine


class HeapEngine:
    """Reference engine: one heap ordered by (time, scheduling order)."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0

    def post(self, time, callback, args=()):
        entry = [time, self._seq, callback, args]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def schedule(self, delay, callback, *args):
        return self.post(self.now + delay, callback, args)

    def cancel(self, entry):
        entry[2] = None

    def pending(self):
        return sum(entry[2] is not None for entry in self._heap)

    def run(self, until=None):
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None:
                heapq.heappop(heap)
            elif until is not None and entry[0] > until:
                self.now = until
                break
            else:
                heapq.heappop(heap)
                callback, entry[2] = entry[2], None
                self.now = entry[0]
                callback(*entry[3])
        return self.now


def _drive(engine, seed):
    """Run one seeded random schedule on ``engine``; return what it saw."""
    rng = random.Random(seed)
    log = []
    handles = []

    def fire(tag, depth):
        log.append((engine.now, tag))
        if handles and rng.random() < 0.25:
            # may hit a later event of this very cycle
            engine.cancel(rng.choice(handles[-20:]))
        for child in range(rng.randrange(3) if depth else 0):
            delay = rng.choice((0, 0, 1, 2, 3, 50, 700, 5000))
            if rng.random() < 0.5:
                handle = engine.schedule(delay, fire, f"{tag}.{child}",
                                         depth - 1)
            else:
                handle = engine.post(engine.now + delay, fire,
                                     (f"{tag}+{child}", depth - 1))
            handles.append(handle)

    for index in range(300):
        handles.append(engine.schedule(rng.randrange(2000), fire,
                                       f"e{index}", 3))
        if index % 7 == 0:
            engine.cancel(rng.choice(handles))
    stops = []
    for until in sorted(rng.sample(range(1, 9000), 8)):
        engine.run(until=until)
        stops.append((engine.now, engine.pending()))
        for _ in range(rng.randrange(4)):
            handles.append(engine.schedule(rng.choice((0, 1, 40, 3000)),
                                           fire, f"u{until}", 2))
        if rng.random() < 0.5:
            engine.cancel(rng.choice(handles))
    engine.run()
    return log, stops, engine.now, engine.pending()


@pytest.mark.parametrize("seed", range(5))
def test_firing_order_matches_a_pure_heap(seed):
    """Property: same firing log, clocks and pending counts as a heap."""
    log, stops, now, pending = _drive(Engine(), seed)
    assert len(log) > 500, "schedule produced too few events"
    assert (log, stops, now, pending) == _drive(HeapEngine(), seed)
    assert pending == 0


def test_cancel_of_bucketed_event_is_slot_clear():
    """A handle is ``[time, callback, args]``; cancel nulls ``[1]``.

    ``gpu/sm.py`` and ``gpu/warp.py`` read the callback slot directly
    to tell a live issue event from a dead one, so the layout is part
    of the contract.
    """
    engine = Engine()
    fired = []
    keep = engine.schedule(5, fired.append, "keep")
    doomed = engine.schedule(5, fired.append, "doomed")
    assert keep == [5, fired.append, ("keep",)]
    engine.cancel(doomed)
    assert doomed[0] == 5 and doomed[1] is None
    assert Engine.cancelled(doomed) and not Engine.cancelled(keep)
    assert engine.pending() == 1
    # cancelling again is a no-op (no double counting)
    engine.cancel(doomed)
    assert engine.counters()["engine_cancelled"] == 1
    engine.run()
    assert fired == ["keep"]
    assert keep[1] is None          # firing clears the slot too
    assert engine.pending() == 0


class _Token:
    """A weakly referenceable event argument."""


def test_bounded_run_keeps_stale_accounting_exact():
    """run(until=...) frees every entry it passes, cancelled or fired.

    Interleave bounded runs with cancellations.  After each run,
    ``pending()`` equals the live events the test itself tracks, and
    no entry whose cycle the run passed is still referenced.
    """
    engine = Engine()
    rng = random.Random(2018)
    live = {}                       # argument token -> its handle
    made = []                       # (fire time, weakref to the token)

    def fire(token):
        del live[token]
        if rng.randrange(3):
            add(rng.randrange(40))

    def add(delay):
        token = _Token()
        handle = live[token] = engine.schedule(delay, fire, token)
        made.append((handle[0], weakref.ref(token)))

    def cancel_one():
        engine.cancel(live.pop(rng.choice(list(live))))

    for _ in range(200):
        add(rng.randrange(120))
    for until in (10, 11, 25, 60, 200, 500):
        for _ in range(20):
            if live:
                cancel_one()
        engine.run(until=until)
        gc.collect()
        assert engine.pending() == len(live)
        assert [time for time, ref in made
                if time <= until and ref() is not None] == []
    engine.run()
    gc.collect()
    assert engine.pending() == 0 and not live
    assert all(ref() is None for _, ref in made)
