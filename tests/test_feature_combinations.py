"""Cross-feature integration: the extension features must compose.

Each test combines two or more independently-added features (mesh NoC,
MESI, GTO scheduling, CTAs, adaptive leases, sequences, atomics) and
checks correctness — composition is where silently-conflicting
assumptions surface.
"""

import pytest

from repro.config import (
    Consistency,
    GPUConfig,
    LeasePolicy,
    NocTopology,
    Protocol,
    SchedulerPolicy,
)
from repro.gpu.gpu import GPU
from repro.trace import (
    Kernel,
    atomic,
    barrier,
    compute,
    fence,
    load,
    store,
)

from tests.conftest import random_kernel, run_and_check


def test_mesh_plus_mesi():
    config = GPUConfig.tiny(protocol=Protocol.MESI,
                            noc_topology=NocTopology.MESH,
                            consistency=Consistency.SC)
    kernel = random_kernel(1, warps=4, length=40, lines=6)
    stats = GPU(config).run(kernel, max_events=2_000_000)
    assert stats.counter("warps_retired") == kernel.num_warps
    assert stats.counter("noc_hops") > 0


def test_mesh_plus_gto_plus_adaptive_lease():
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC,
                            noc_topology=NocTopology.MESH,
                            scheduler=SchedulerPolicy.GTO,
                            lease_policy=LeasePolicy.ADAPTIVE)
    run_and_check(config, random_kernel(2, warps=4, length=50))


def test_cta_barriers_with_atomics():
    kernel = Kernel("ctaatomic", [
        [atomic(0), barrier(), load(0), fence()],
        [atomic(0), barrier(), load(0), fence()],
    ], cta_size=2)
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    gpu, _ = run_and_check(config, kernel)
    # after the barrier, both warps observe both atomics
    post_barrier_loads = [r for r in gpu.machine.log.loads
                          if r.addr == 0]
    for record in post_barrier_loads:
        assert record.version == 2


def test_cta_barriers_under_tc_and_mesi():
    kernel = Kernel("ctax", [
        [store(0), barrier(), load(1), fence()],
        [store(1), barrier(), load(0), fence()],
    ], cta_size=2)
    for protocol in (Protocol.TC, Protocol.MESI):
        config = GPUConfig.tiny(protocol=protocol,
                                consistency=Consistency.SC)
        gpu = GPU(config)
        gpu.run(kernel)
        # barrier + SC: each load observes the CTA-mate's store
        for record in gpu.machine.log.loads:
            assert record.version == 1, protocol


def test_sequence_of_cta_kernels():
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    gpu = GPU(config)
    kernels = [
        Kernel("k1", [[store(0), barrier(), load(0), fence()],
                      [compute(3), barrier(), load(0), fence()]],
               cta_size=2),
        Kernel("k2", [[load(0), fence()],
                      [load(0), fence()]], cta_size=2),
    ]
    results = gpu.run_sequence(kernels)
    assert all(r.counter("warps_retired") == 2 for r in results)
    # kernel 2 reads the value kernel 1 produced, via the L2
    assert gpu.machine.log.loads[-1].version == 1


def test_overflow_reset_with_adaptive_lease_and_atomics():
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC,
                            ts_max=511,
                            lease_policy=LeasePolicy.ADAPTIVE)
    import random
    rng = random.Random(6)
    traces = []
    for _ in range(4):
        trace = []
        for _ in range(60):
            r = rng.random()
            if r < 0.4:
                trace.append(load(rng.randrange(3)))
            elif r < 0.7:
                trace.append(store(rng.randrange(3)))
            else:
                trace.append(atomic(rng.randrange(3)))
        trace.append(fence())
        traces.append(trace)
    gpu, stats = run_and_check(config, Kernel("stress", traces))
    assert stats.counter("ts_overflows") >= 1


def test_mesi_with_gto_and_waves():
    config = GPUConfig.tiny(protocol=Protocol.MESI,
                            consistency=Consistency.RC,
                            scheduler=SchedulerPolicy.GTO)
    kernel = random_kernel(7, warps=8, length=30, lines=8)
    stats = GPU(config).run(kernel, max_events=2_000_000)
    assert stats.counter("warps_retired") == 8
