"""Unit tests for the event engine."""

import gc
import weakref

import pytest

from repro.sim.engine import Engine
from repro.stats.names import ENGINE_COUNTERS


def test_clock_starts_at_zero():
    assert Engine().now == 0


def test_schedule_and_run_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(5, fired.append, "b")
    engine.schedule(2, fired.append, "a")
    engine.schedule(9, fired.append, "c")
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 9


def test_same_cycle_events_fire_in_scheduling_order():
    engine = Engine()
    fired = []
    for tag in range(10):
        engine.schedule(3, fired.append, tag)
    engine.run()
    assert fired == list(range(10))


def test_zero_delay_fires_after_current_event():
    engine = Engine()
    order = []

    def outer():
        order.append("outer")
        engine.schedule(0, lambda: order.append("inner"))

    engine.schedule(1, outer)
    engine.schedule(1, lambda: order.append("sibling"))
    engine.run()
    # the zero-delay event was scheduled later, so it fires last
    assert order == ["outer", "sibling", "inner"]


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Engine().schedule(-1, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule(4, fired.append, "x")
    engine.schedule(1, fired.append, "y")
    engine.cancel(event)
    engine.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    engine = Engine()
    event = engine.schedule(1, lambda: None)
    engine.cancel(event)
    engine.cancel(event)
    engine.run()


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule(3, fired.append, "early")
    engine.schedule(10, fired.append, "late")
    engine.run(until=5)
    assert fired == ["early"]
    assert engine.now == 5
    engine.run()
    assert fired == ["early", "late"]


def test_at_schedules_absolute_time():
    engine = Engine()
    times = []
    engine.schedule(4, lambda: engine.at(7, lambda: times.append(engine.now)))
    engine.run()
    assert times == [7]


def test_peek_skips_cancelled():
    engine = Engine()
    event = engine.schedule(2, lambda: None)
    engine.schedule(5, lambda: None)
    engine.cancel(event)
    assert engine.peek() == 5


def test_step_returns_false_on_empty():
    assert Engine().step() is False


def test_max_events_guard():
    engine = Engine()

    def rearm():
        engine.schedule(1, rearm)

    engine.schedule(1, rearm)
    with pytest.raises(RuntimeError, match="exceeded"):
        engine.run(max_events=50)


def test_events_nested_scheduling_keeps_clock_monotone():
    engine = Engine()
    seen = []

    def at_time(t):
        seen.append(engine.now)
        if t < 5:
            engine.schedule(1, at_time, t + 1)

    engine.schedule(0, at_time, 0)
    engine.run()
    assert seen == sorted(seen)


def test_pending_counts_live_events():
    engine = Engine()
    keep = engine.schedule(1, lambda: None)
    drop = engine.schedule(2, lambda: None)
    engine.cancel(drop)
    assert engine.pending() == 1
    assert keep[0] == 1
    assert Engine.cancelled(drop) and not Engine.cancelled(keep)


class _Token:
    """A weakly referenceable event argument."""


def test_mass_cancellation_compacts_the_heap():
    """No entry, cancelled or fired, is left once run() has passed its
    cycle."""
    engine = Engine()
    fired = []
    tokens = [_Token() for _ in range(10_001)]
    refs = [weakref.ref(token) for token in tokens]
    doomed = [engine.schedule(i + 1, fired.append, token)
              for i, token in enumerate(tokens[1:])]
    engine.schedule(20_000, lambda token: None, tokens[0])
    keep = engine.schedule(50_000, fired.append, "keep")
    for event in doomed:
        engine.cancel(event)
    del doomed, tokens, event
    assert engine.pending() == 2
    engine.run()
    gc.collect()
    assert fired == ["keep"]
    assert engine.now == 50_000
    assert [ref for ref in refs if ref() is not None] == []
    assert Engine.cancelled(keep)  # fired events read as no-longer-pending


def test_cancelled_last_event_leaves_the_clock_at_the_last_fired():
    """``GPU.finish`` reports ``engine.now`` as the run's cycles."""
    engine = Engine()
    engine.schedule(3, lambda: None)
    engine.cancel(engine.schedule(7, lambda: None))
    assert engine.run() == 3
    assert engine.now == 3
    # nor does a bounded run that meets only cancelled events move it
    engine.cancel(engine.schedule(20, lambda: None))
    assert engine.run(until=10) == 3
    assert engine.pending() == 0


def test_bounded_run_fires_far_events_on_time_after_a_cancelled_cycle():
    """A skipped all-cancelled cycle must not pull a far event early."""
    engine = Engine()
    fired = []
    engine.cancel(engine.schedule(100, lambda: None))
    engine.schedule(550, lambda: fired.append(("far", engine.now)))
    engine.schedule(300, lambda: fired.append(("near", engine.now)))
    engine.run(until=1000)
    assert fired == [("near", 300), ("far", 550)]


def test_run_after_max_events_fires_the_rest_of_the_cycle_in_order():
    engine = Engine()
    fired = []

    def record(tag):
        fired.append((engine.now, tag))
        if tag == 1:
            engine.schedule(0, record, "zero-delay")

    engine.schedule(1, record, "first")
    for tag in range(5):
        engine.schedule(2, record, tag)
    engine.schedule(4, record, "last")
    with pytest.raises(RuntimeError, match="exceeded 3 events"):
        engine.run(max_events=3)
    assert fired == [(1, "first"), (2, 0), (2, 1)]
    engine.run()
    assert fired == [(1, "first"), (2, 0), (2, 1), (2, 2), (2, 3),
                     (2, 4), (2, "zero-delay"), (4, "last")]
    assert engine.pending() == 0


def test_run_resumes_after_a_callback_raises():
    engine = Engine()
    fired = []

    def record(tag):
        fired.append(tag)
        if tag == "boom":
            raise ValueError(tag)

    for tag in ("a", "boom", "b"):
        engine.schedule(2, record, tag)
    engine.schedule(3, record, "c")
    with pytest.raises(ValueError):
        engine.run()
    assert engine.pending() == 2        # the raising event fired
    engine.run()
    assert fired == ["a", "boom", "b", "c"]
    assert engine.pending() == 0


def test_hook_reads_an_exact_pending_count():
    """The observability gauges call pending() from inside the hook."""
    engine = Engine()
    seen = []
    engine.hook = lambda time, callback: seen.append(
        (time, engine.pending()))
    for delay in (1, 1, 2, 5):
        engine.schedule(delay, lambda: None)
    engine.cancel(engine.schedule(3, lambda: None))
    engine.run()
    assert seen == [(1, 3), (1, 2), (2, 1), (5, 0)]


def test_counters_count_scheduled_fired_and_cancelled():
    engine = Engine()
    engine.schedule(1, lambda: None)
    engine.at(1000, lambda: None)
    engine.cancel(engine.schedule(2, lambda: None))
    engine.run()
    assert engine.counters() == {
        "engine_events_scheduled": 3,
        "engine_events_fired": 2,
        "engine_cancelled": 1,
    }
    assert set(engine.counters()) == ENGINE_COUNTERS


def test_cancel_after_fire_is_a_noop():
    engine = Engine()
    event = engine.schedule(1, lambda: None)
    engine.run()
    engine.cancel(event)
    assert engine.pending() == 0


def test_determinism_of_interleaved_schedules():
    def build():
        engine = Engine()
        log = []
        for i in range(20):
            engine.schedule(i % 4, log.append, i)
        engine.run()
        return log

    assert build() == build()
