"""The calendar/bucket queue is observably identical to a pure heap.

The batch-advancing engine drains whole cycles from per-cycle FIFO
buckets and only sends far-future events through the heap.  A tiny
``horizon`` forces almost every event through the heap-and-migrate
path, so running the same schedule under ``horizon=2`` and the default
horizon compares the two dispatch mechanisms directly: same firing
order (including same-cycle FIFO ties), same clock, same stats — for
random schedules and for full simulations of all four protocols.

Also covers the bucket-specific bookkeeping: ``cancel`` of a bucketed
entry is an O(1) slot clear reclaimed for free at drain time, and
bounded ``run(until=...)`` keeps the stale-entry accounting exact so
``compact()`` can never drift ``_stale`` negative.
"""

import json
import random

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.sim.engine import DEFAULT_HORIZON, Engine
from repro.workloads import build_workload

HORIZONS = (2, 8, 64, DEFAULT_HORIZON)


def _random_schedule(engine, seed, events=400, cancel_every=7):
    """Drive ``engine`` with a seeded random load, logging every fire.

    Callbacks reschedule follow-ups (including zero-delay same-cycle
    appends and far-future jumps past any small horizon) and a
    deterministic subset of handles is cancelled mid-run, so the log
    exercises bucket hits, heap deferrals, migration and lazy cancel.
    """
    rng = random.Random(seed)
    log = []
    handles = []

    def fire(tag, depth):
        log.append((engine.now, tag))
        if depth > 0:
            for _ in range(rng.randrange(3)):
                delay = rng.choice((0, 1, 2, 3, 50, 700, 1500))
                handles.append(engine.schedule(
                    delay, fire, f"{tag}.{delay}", depth - 1))

    for index in range(events):
        delay = rng.randrange(2000)
        handles.append(engine.schedule(delay, fire, f"e{index}", 2))
        if index % cancel_every == 0 and handles:
            engine.cancel(handles[rng.randrange(len(handles))])
    engine.run()
    return log


@pytest.mark.parametrize("seed", range(5))
def test_firing_order_is_horizon_invariant(seed):
    """Property: bucket drain == heap order for random schedules."""
    reference = _random_schedule(Engine(), seed)
    assert reference, "schedule produced no events"
    for horizon in HORIZONS:
        log = _random_schedule(Engine(horizon=horizon), seed)
        assert log == reference, (
            f"horizon={horizon} changed the firing order for seed {seed}"
        )


@pytest.mark.parametrize("protocol", [Protocol.GTSC, Protocol.TC,
                                      Protocol.MESI, Protocol.DISABLED])
def test_protocol_runs_are_horizon_invariant(protocol, monkeypatch):
    """All four protocols simulate bit-identically under horizon=2.

    ``horizon=2`` routes essentially every event through the heap and
    the migrate-on-window-slide path — the closest living relative of
    the old pure-heap engine — so RunStats equality here is the
    same-cycle FIFO property end to end.
    """
    import repro.gpu.machine as machine_mod

    def simulate():
        config = GPUConfig.tiny(protocol=protocol,
                                consistency=Consistency.RC)
        kernel = build_workload("BFS", scale=0.3, seed=2018)
        return GPU(config, record_accesses=False).run(kernel).to_dict()

    reference = simulate()
    # shrink the horizon at the name the machine constructs its
    # engine through
    built = []

    def small_engine():
        built.append(Engine(horizon=2))
        return built[-1]

    monkeypatch.setattr(machine_mod, "Engine", small_engine)
    assert json.dumps(simulate(), sort_keys=True) == \
        json.dumps(reference, sort_keys=True)
    assert len(built) == 1  # the run really used the small horizon


def test_cancel_of_bucketed_event_is_slot_clear():
    """Cancelling an in-window event nulls the slot, nothing else."""
    engine = Engine()
    fired = []
    keep = engine.schedule(5, fired.append, "keep")
    doomed = engine.schedule(5, fired.append, "doomed")
    bucket = engine._buckets[5 & engine._mask]
    assert doomed in bucket
    engine.cancel(doomed)
    # O(1) lazy cancel: the entry stays in its bucket with the
    # callback slot cleared; no list surgery, no heap traffic
    assert doomed in bucket
    assert doomed[2] is None
    assert Engine.cancelled(doomed)
    assert engine._stale_buckets == 1
    assert engine._stale == 0
    # cancelling again is a no-op (no double counting)
    engine.cancel(doomed)
    assert engine._stale_buckets == 1
    engine.run()
    assert fired == ["keep"]
    assert keep[2] is None
    # the drain reclaimed the stale slot
    assert engine._stale_buckets == 0
    assert engine.stale_reclaimed == 1
    assert engine.pending() == 0


def test_bounded_run_keeps_stale_accounting_exact():
    """Regression: run(until=...) must not leak drained stale entries.

    The bounded path skips over cancelled entries while draining; if
    it failed to book them, a later ``compact()`` would drift
    ``_stale`` negative.  Interleave bounded runs with cancellations
    and verify the books balance against a physical count of the
    queue at every step.
    """
    engine = Engine(horizon=8)          # small window: heap traffic too
    rng = random.Random(2018)
    handles = []

    def live_entries():
        queued = sum(1 for bucket in engine._buckets for entry in bucket
                     if entry[2] is not None)
        return queued + sum(1 for entry in engine._heap
                            if entry[2] is not None)

    def fire():
        if rng.randrange(3):
            handles.append(engine.schedule(rng.randrange(40), fire))

    for _ in range(200):
        handles.append(engine.schedule(rng.randrange(120), fire))
    for until in (10, 11, 25, 60, 200, 500):
        for _ in range(20):
            if handles:
                engine.cancel(handles.pop(rng.randrange(len(handles))))
        engine.run(until=until)
        assert engine._stale >= 0
        assert engine._stale_buckets >= 0
        assert engine.pending() == live_entries()
        engine.compact()
        assert engine._stale == 0
        assert engine.pending() == live_entries()
    engine.run()
    assert engine.pending() == 0
    assert engine._stale == 0
    assert engine._stale_buckets == 0


def test_counters_report_bucket_and_heap_split():
    """Engine.counters() exposes the engine_* observability names."""
    from repro.stats.names import ENGINE_COUNTERS

    engine = Engine(horizon=4)
    engine.schedule(1, lambda: None)        # bucket-direct
    engine.schedule(1000, lambda: None)     # heap-deferred
    doomed = engine.schedule(2, lambda: None)
    engine.cancel(doomed)
    engine.run()
    counters = engine.counters()
    assert set(counters) == ENGINE_COUNTERS
    assert counters["engine_events_scheduled"] == 3
    assert counters["engine_events_fired"] == 2
    assert counters["engine_bucket_direct"] == 2
    assert counters["engine_heap_deferred"] == 1
    assert counters["engine_heap_migrated"] == 1
    assert counters["engine_cancelled"] == 1
    assert counters["engine_stale_reclaimed"] == 1
