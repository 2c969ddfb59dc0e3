"""CTA placement and intra-CTA barriers (__syncthreads)."""

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.trace import (
    Kernel,
    barrier,
    compute,
    fence,
    load,
    store,
)

from tests.conftest import run_and_check


def run(kernel, **overrides):
    config = GPUConfig.tiny(protocol=Protocol.GTSC, **overrides)
    gpu = GPU(config)
    stats = gpu.run(kernel)
    return gpu, stats


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

def test_cta_warps_land_on_one_sm():
    kernel = Kernel("place", [[compute(2)] for _ in range(4)],
                    cta_size=2)
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    gpu = GPU(config)
    # inspect placement before the run drains the queues
    gpu._execute(kernel, max_events=None)
    # CTA 0 -> SM0, CTA 1 -> SM1; each SM saw exactly 2 warps retire
    assert gpu.sms[0].retired == 2
    assert gpu.sms[1].retired == 2


def test_cta_larger_than_sm_capacity_rejected():
    kernel = Kernel("big", [[compute(1)] for _ in range(4)], cta_size=4)
    config = GPUConfig.tiny(protocol=Protocol.GTSC)  # 2 warps/SM
    with pytest.raises(ValueError, match="cta_size"):
        GPU(config).run(kernel)


def test_ctas_activate_in_waves_as_units():
    # 4 CTAs of 2 warps on a 2-SM, 2-warp/SM machine: two waves
    kernel = Kernel("waves", [[compute(5)] for _ in range(8)],
                    cta_size=2)
    _, stats = run(kernel)
    assert stats.counter("warps_retired") == 8


def test_kernel_validate_rejects_barrier_without_cta():
    kernel = Kernel("oops", [[barrier()], [barrier()]])
    with pytest.raises(ValueError, match="cta_size"):
        kernel.validate()


def test_num_ctas():
    kernel = Kernel("n", [[compute(1)] for _ in range(5)], cta_size=2)
    assert kernel.num_ctas == 3


# ---------------------------------------------------------------------------
# barrier semantics
# ---------------------------------------------------------------------------

def test_barrier_waits_for_all_cta_warps():
    """The fast warp must wait at the barrier for the slow warp."""
    kernel = Kernel("sync", [
        [compute(2), barrier(), compute(1)],     # fast
        [compute(50), barrier(), compute(1)],    # slow
    ], cta_size=2)
    _, stats = run(kernel)
    # the fast warp could not retire before the slow one arrived
    assert stats.cycles >= 50
    assert stats.counter("barriers") == 2
    assert stats.counter("barrier_releases") == 1


def test_barrier_orders_producer_consumer_within_cta():
    """The classic __syncthreads pattern: warp 0 writes, both sync,
    warp 1 reads — the read must observe the write, every time."""
    for _ in range(3):
        kernel = Kernel("prodcons", [
            [store(0), barrier(), compute(1), fence()],
            [compute(3), barrier(), load(0), fence()],
        ], cta_size=2)
        gpu, _ = run_and_check(
            GPUConfig.tiny(protocol=Protocol.GTSC,
                           consistency=Consistency.SC), kernel)
        read = next(r for r in gpu.machine.log.loads if r.addr == 0)
        assert read.version == 1


def test_multiple_barrier_rounds():
    kernel = Kernel("rounds", [
        [compute(2), barrier(), compute(2), barrier(), compute(2)],
        [compute(3), barrier(), compute(3), barrier(), compute(3)],
    ], cta_size=2)
    _, stats = run(kernel)
    assert stats.counter("barrier_releases") == 2
    assert stats.counter("warps_retired") == 2


def test_retiring_warp_releases_waiting_cta_mates():
    """A warp whose trace ends without reaching the next barrier must
    not deadlock its CTA (forgiving semantics, documented)."""
    kernel = Kernel("uneven", [
        [compute(2), barrier(), compute(2), barrier(), compute(1)],
        [compute(2), barrier()],   # stops after the first barrier
    ], cta_size=2)
    _, stats = run(kernel)
    assert stats.counter("warps_retired") == 2


def test_independent_ctas_do_not_synchronise_with_each_other():
    # two CTAs; CTA 0's barrier must not wait for CTA 1
    kernel = Kernel("indep", [
        [compute(2), barrier(), compute(1)],
        [compute(2), barrier(), compute(1)],
        [compute(200), barrier(), compute(1)],
        [compute(200), barrier(), compute(1)],
    ], cta_size=2)
    gpu, stats = run(kernel)
    # CTA 0 (SM0) finished long before CTA 1 (SM1): check via retire
    assert stats.counter("barrier_releases") == 2


def test_barrier_drains_memory_before_arrival():
    """Arrival requires the warp's stores to be globally performed."""
    kernel = Kernel("drain", [
        [store(0), store(1), barrier(), compute(1)],
        [compute(1), barrier(), load(0), load(1), fence()],
    ], cta_size=2)
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    gpu, _ = run_and_check(config, kernel)
    for record in gpu.machine.log.loads:
        assert record.version == 1  # both writes visible post-barrier


def test_barriers_serialize_round_trip():
    kernel = Kernel("ser", [
        [compute(1), barrier(), load(0), fence()],
        [compute(1), barrier(), store(0), fence()],
    ], cta_size=2)
    rebuilt = Kernel.from_dict(kernel.to_dict())
    assert rebuilt.cta_size == 2
    assert rebuilt.to_dict() == kernel.to_dict()


def test_barrier_heavy_random_kernel_is_coherent():
    import random
    rng = random.Random(5)
    traces = []
    for w in range(4):
        trace = []
        for _round in range(6):
            for _ in range(4):
                r = rng.random()
                if r < 0.5:
                    trace.append(load(rng.randrange(4)))
                elif r < 0.8:
                    trace.append(store(rng.randrange(4)))
                else:
                    trace.append(compute(rng.randrange(1, 4)))
            trace.append(barrier())
        trace.append(fence())
        traces.append(trace)
    kernel = Kernel("brand", traces, cta_size=2)
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    run_and_check(config, kernel)
