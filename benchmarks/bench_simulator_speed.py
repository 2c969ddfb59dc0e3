"""Simulator throughput microbenchmarks (not a paper figure).

Tracks the cost of the simulation substrate itself so regressions in
the event engine or protocol hot paths are visible: simulated
cycles/second and instructions/second for one representative workload
per protocol.
"""

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.workloads import build_workload


@pytest.mark.parametrize("protocol", [Protocol.GTSC, Protocol.TC,
                                      Protocol.DISABLED])
def test_simulation_throughput(benchmark, protocol):
    config = GPUConfig.small(protocol=protocol,
                             consistency=Consistency.RC)
    kernel = build_workload("VPR", scale=0.4, seed=2018)

    def run_once():
        return GPU(config, record_accesses=False).run(kernel)

    stats = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert stats.counter("warps_retired") == kernel.num_warps


def test_event_engine_throughput(benchmark):
    from repro.sim.engine import Engine

    def churn():
        engine = Engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 50_000:
                engine.schedule(1, tick)

        engine.schedule(0, tick)
        engine.run()
        return count[0]

    assert benchmark.pedantic(churn, rounds=3, iterations=1) == 50_000


def test_engine_schedule_cancel_churn(benchmark):
    """Scheduling plus heavy cancellation: the compaction path.

    Half the scheduled events are cancelled before firing, the way SM
    issue-event rescheduling behaves under MSHR pressure; the lazy
    cancel + periodic compaction must keep this near the pure-fire
    cost rather than degrading with heap garbage.
    """
    from repro.sim.engine import Engine

    def churn():
        engine = Engine()
        fired = [0]

        def noop():
            fired[0] += 1

        for round_ in range(50):
            doomed = [engine.schedule(1000 + i, noop)
                      for i in range(500)]
            for event in doomed:
                engine.cancel(event)
            for i in range(500):
                engine.schedule(1, noop)
            engine.run()
        return fired[0]

    assert benchmark.pedantic(churn, rounds=3, iterations=1) == 25_000


def test_scheduler_ready_mask(benchmark):
    """Packed warp-scheduler scan in isolation.

    Rebuilding the candidate bitmask from the packed classification
    array is the scheduler's hot rebuild path; this measures it over a
    seeded mixed population (ready, done, blocked with and without
    wake timers) without any simulation around it.  ``ready_mask`` is
    the one per-slot loop the SM calls, so this benchmark tracks the
    scan the simulator actually runs.
    """
    import random

    from repro.gpu.sm import ready_mask

    rng = random.Random(2018)
    populations = []
    for _ in range(64):
        cls = []
        for _ in range(48):  # one full SM's warp contexts
            draw = rng.random()
            if draw < 0.30:
                cls.append(0)                        # ready
            elif draw < 0.45:
                cls.append(3)                        # done
            elif draw < 0.60:
                cls.append(1)                        # blocked, no timer
            else:                                    # blocked until wake
                wake = rng.randrange(1, 5000)
                cls.append(((wake + 1) << 3) | 2)
        populations.append(cls)

    def scan():
        total = 0
        for now in range(0, 5000, 7):
            total += ready_mask(populations[now % 64], now).bit_count()
        return total

    expected = scan()
    assert benchmark.pedantic(scan, rounds=5, iterations=1) == expected


def test_l1_packed_probe(benchmark):
    """L1 tag + lease probe: the TC load-hit path in isolation.

    One dict probe of the packed tag index for the slot, then one
    compare against that slot's line-record expiry — the sequence the
    TC and G-TSC L1 controllers run per load — over a seeded address
    stream with ~20% misses.  Guards the tag-index layout and the
    line-record read against regressions independently of protocol
    logic.
    """
    import random

    from repro.mem.cache import CacheArray

    cache = CacheArray(num_sets=64, assoc=4)
    rng = random.Random(2018)
    for addr in range(256):  # fills the array exactly
        line, _ = cache.allocate(addr)
        line.expiry = rng.randrange(1, 2000)
        line.version = addr
    stream = [rng.randrange(0, 320) for _ in range(8192)]

    def probe():
        hits = 0
        where_get = cache._where.get
        lines = cache._lines
        now = 1000
        for addr in stream:
            slot = where_get(addr)
            if slot is not None and now < lines[slot].expiry:
                hits += 1
        return hits

    expected = probe()
    assert benchmark.pedantic(probe, rounds=5, iterations=1) == expected


def test_matrix_sweep_throughput(benchmark):
    """End-to-end harness throughput: a small protocol matrix.

    Exercises the full stack the experiment suite sits on — workload
    construction, runner memoisation and simulation — so harness-level
    regressions (not just engine ones) show up.  Uses a fresh runner
    per round: deliberately cold, measuring simulation cost.
    """
    from repro.config import Consistency, Protocol
    from repro.harness.runner import ExperimentRunner

    workloads = ["BFS", "STN"]

    def run_matrix():
        runner = ExperimentRunner(preset="tiny", scale=0.3, seed=2018)
        for workload in workloads:
            runner.matrix(workload)
        return runner.simulations_run

    assert benchmark.pedantic(run_matrix, rounds=3, iterations=1) \
        == 4 * len(workloads)
