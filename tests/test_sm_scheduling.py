"""SM scheduler behaviour: issue rules, consistency models, stalls,
occupancy waves."""

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU, SimulationHang
from repro.sim.engine import Engine
from repro.trace import Kernel, compute, fence, load, store

import pytest


def run(config, kernel):
    return GPU(config).run(kernel)


def test_pure_compute_kernel_takes_sum_of_cycles():
    config = GPUConfig.tiny()
    kernel = Kernel("c", [[compute(10), compute(5)]])
    stats = run(config, kernel)
    # 1 issue cycle + 10, then 1 + 5 (issue overlaps the first cycle)
    assert 15 <= stats.cycles <= 18
    assert stats.counter("instructions") == 2


def test_two_warps_interleave_on_one_sm():
    config = GPUConfig.tiny()
    # both warps land on SM0 and SM1 (round-robin): give each SM one
    kernel = Kernel("i", [[compute(50)], [compute(50)]])
    stats = run(config, kernel)
    # they run in parallel on different SMs, not 100 serial cycles
    assert stats.cycles < 70


def test_warps_beyond_capacity_run_in_waves():
    config = GPUConfig.tiny()  # 2 SMs x 2 warps = 4 slots
    kernel = Kernel("waves", [[compute(20)] for _ in range(8)])
    stats = run(config, kernel)
    assert stats.counter("warps_retired") == 8
    # 8 warps over 4 slots: at least two waves of ~20 cycles
    assert stats.cycles >= 40


def test_sc_allows_single_outstanding_memory_op():
    config = GPUConfig.tiny(consistency=Consistency.SC,
                            protocol=Protocol.GTSC)
    kernel = Kernel("sc", [[store(0), store(1), store(2), fence()]])
    sc_cycles = run(config, kernel).cycles
    rc = GPUConfig.tiny(consistency=Consistency.RC, protocol=Protocol.GTSC)
    rc_cycles = run(rc, Kernel("rc", [[store(0), store(1), store(2),
                                       fence()]])).cycles
    # RC overlaps the three store round trips; SC serializes them
    assert sc_cycles > rc_cycles


def test_memory_stalls_counted_when_warps_wait():
    config = GPUConfig.tiny()
    kernel = Kernel("m", [[load(0), fence()]])
    stats = run(config, kernel)
    assert stats.counter("stall_mem_cycles") > 0


def test_compute_blocking_not_counted_as_memory_stall():
    config = GPUConfig.tiny()
    kernel = Kernel("c", [[compute(100)]])
    stats = run(config, kernel)
    assert stats.counter("stall_mem_cycles") == 0


def test_fence_with_nothing_outstanding_is_free():
    config = GPUConfig.tiny()
    kernel = Kernel("f", [[fence(), fence(), fence()]])
    stats = run(config, kernel)
    assert stats.cycles <= 6
    assert stats.counter("fences") == 3


def test_multi_line_load_issues_all_accesses():
    config = GPUConfig.tiny()
    kernel = Kernel("coal", [[load(0, 1, 2, 3), fence()]])
    stats = run(config, kernel)
    assert stats.counter("l1_access") == 4
    assert stats.counter("mem_instructions") == 1


def test_mshr_backpressure_retries_and_completes():
    # 4-entry L1 MSHR, one instruction touching 6 distinct lines
    config = GPUConfig.tiny()
    kernel = Kernel("bp", [[load(0, 2, 4, 6, 8, 10), fence()]])
    stats = run(config, kernel)
    assert stats.counter("l1_mshr_stall") >= 1
    assert stats.counter("warps_retired") == 1


def test_hang_detection_reports_stuck_warps():
    """A protocol that drops a message must fail loudly, not silently."""
    from repro.gpu.machine import Machine
    from repro.protocols.factory import build_protocol
    config = GPUConfig.tiny()
    gpu = GPU(config)

    # sabotage: disconnect the L1 from its SM completions
    class SwallowingL1:
        def __init__(self, inner):
            self._inner = inner

        def load(self, warp, addr, cb):
            return True  # accepted, but the callback never fires

        def __getattr__(self, name):
            return getattr(self._inner, name)

    sabotaged = SwallowingL1(gpu.machine.l1s[0])
    gpu.machine.l1s[0] = sabotaged
    gpu.sms[0].l1 = sabotaged
    with pytest.raises(SimulationHang, match="never finished"):
        gpu.run(Kernel("stuck", [[load(0), fence()]]))


def test_round_robin_gives_every_warp_progress():
    config = GPUConfig.tiny()
    # two warps per SM slot on SM0: uid 0 and uid 2 land on SM0
    kernel = Kernel("rr", [
        [compute(3)] * 10,
        [compute(3)] * 10,
        [compute(3)] * 10,
        [compute(3)] * 10,
    ])
    stats = run(config, kernel)
    assert stats.counter("warps_retired") == 4


def test_instructions_counted_once_despite_retries():
    config = GPUConfig.tiny()
    kernel = Kernel("cnt", [[load(0, 2, 4, 6, 8, 10), fence()]])
    stats = run(config, kernel)
    # 2 instructions: the load and the fence (retries don't recount)
    assert stats.counter("instructions") == 2


@pytest.mark.parametrize("interval", [1, 4])
def test_refused_access_is_retried_every_mshr_retry_interval(interval):
    """What the L1 refuses of an instruction is offered again
    ``mshr_retry_interval`` cycles later, and only that rest is."""
    gpu = GPU(GPUConfig.tiny(mshr_retry_interval=interval))
    engine = gpu.machine.engine
    offers = []

    class RefusingL1:
        """Refuses the first three offers of line 1."""

        def __init__(self, inner):
            self._inner = inner

        def load(self, warp, addr, cb):
            offers.append((engine.now, addr))
            if addr == 1 and len(offers) <= 4:
                return False
            return self._inner.load(warp, addr, cb)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    gpu.sms[0].l1 = RefusingL1(gpu.machine.l1s[0])
    stats = gpu.run(Kernel("retry", [[load(0, 1), fence()]]))
    issued = offers[0][0]
    assert offers == [(issued, 0)] + [(issued + k * interval, 1)
                                      for k in range(4)]
    assert stats.counter("instructions") == 2


def test_schedule_issue_treats_dead_handle_as_absent():
    """A cancelled or already-fired issue-event handle (callback slot
    nulled) must never suppress scheduling a needed issue event, no
    matter what stale fire time it still carries."""
    gpu = GPU(GPUConfig.tiny())
    sm = gpu.sms[0]
    engine = gpu.machine.engine

    dead = engine.schedule(1000, lambda: None)
    engine.cancel(dead)                   # callback slot is now None
    sm._issue_event = dead
    sm._schedule_issue(5)
    assert sm._issue_event is not dead    # fresh event was scheduled
    assert not Engine.cancelled(sm._issue_event)
    assert sm._issue_event[0] == engine.now + 5


def test_schedule_issue_keeps_a_live_earlier_event():
    gpu = GPU(GPUConfig.tiny())
    sm = gpu.sms[0]
    sm._schedule_issue(2)
    live = sm._issue_event
    sm._schedule_issue(10)                # later: the live one wins
    assert sm._issue_event is live
    sm._schedule_issue(1)                 # earlier: reschedules
    assert sm._issue_event is not live
    assert Engine.cancelled(live)         # old handle was cancelled
