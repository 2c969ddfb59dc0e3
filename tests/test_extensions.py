"""Tests for the extension features: adaptive leases, multi-kernel
sequences, the coalescing unit, and the IRIW litmus shape."""

import random

import pytest

from repro.config import Consistency, GPUConfig, LeasePolicy, Protocol
from repro.gpu.coalescer import (
    coalesce,
    coalesced_load,
    coalesced_store,
    strided_access,
    unit_stride_access,
)
from repro.gpu.gpu import GPU
from repro.gpu.machine import Machine
from repro.gpu.warp import Warp
from repro.protocols.factory import build_protocol
from repro.trace import Kernel, compute, fence, load, pack_trace, store
from repro.workloads import build_workload
from repro.workloads.litmus import iriw, iriw_outcome

from tests.conftest import random_kernel, run_and_check


# ---------------------------------------------------------------------------
# adaptive leases (Tardis-2.0-inspired extension)
# ---------------------------------------------------------------------------

def _renewal_machine(policy):
    config = GPUConfig.tiny(protocol=Protocol.GTSC, lease_policy=policy,
                            lease_max_factor=8)
    machine = Machine(config)
    build_protocol(machine)
    return machine


@pytest.mark.parametrize("policy", [LeasePolicy.FIXED,
                                    LeasePolicy.ADAPTIVE])
def test_lease_policies_grant_coverage(policy):
    machine = _renewal_machine(policy)
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    l1.load(warp, 0, lambda: None)
    machine.engine.run()
    warp.ts = 100
    l1.load(warp, 0, lambda: None)
    machine.engine.run()
    assert l1.cache.lookup(0).rts >= 100


def test_adaptive_lease_grows_with_renewal_streak():
    machine = _renewal_machine(LeasePolicy.ADAPTIVE)
    l1 = machine.l1s[0]
    bank = machine.l2_banks[0]
    warp = Warp(0, pack_trace([]))
    l1.load(warp, 0, lambda: None)
    machine.engine.run()
    grants = []
    for step in range(4):
        warp.ts = l1.cache.lookup(0).rts + 1   # force a renewal
        l1.load(warp, 0, lambda: None)
        machine.engine.run()
        grants.append(l1.cache.lookup(0).rts - warp.ts)
    # the granted slack grows as the streak builds, up to the cap
    assert grants[-1] > grants[0]
    assert grants[-1] <= machine.config.lease * \
        machine.config.lease_max_factor


def test_adaptive_streak_resets_on_write():
    machine = _renewal_machine(LeasePolicy.ADAPTIVE)
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    l1.load(warp, 0, lambda: None)
    machine.engine.run()
    for _ in range(3):
        warp.ts = l1.cache.lookup(0).rts + 1
        l1.load(warp, 0, lambda: None)
        machine.engine.run()
    line = machine.l2_banks[0].cache.lookup(0)
    assert line.renewals >= 3
    l1.store(warp, 0, lambda: None)
    machine.engine.run()
    assert machine.l2_banks[0].cache.lookup(0).renewals == 0


def test_adaptive_lease_reduces_renewals_on_read_mostly_workload():
    def renewals(policy):
        config = GPUConfig.small(protocol=Protocol.GTSC,
                                 consistency=Consistency.RC,
                                 lease_policy=policy)
        kernel = build_workload("BH", scale=0.4, seed=2018)
        stats = GPU(config, record_accesses=False).run(kernel)
        return stats.counter("l2_renewals"), stats.cycles

    fixed_renewals, fixed_cycles = renewals(LeasePolicy.FIXED)
    adaptive_renewals, adaptive_cycles = renewals(LeasePolicy.ADAPTIVE)
    assert adaptive_renewals < fixed_renewals
    # and it must not cost performance
    assert adaptive_cycles <= fixed_cycles * 1.05


def test_adaptive_lease_stays_coherent():
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC,
                            lease_policy=LeasePolicy.ADAPTIVE)
    for seed in (1, 4):
        run_and_check(config, random_kernel(seed, warps=4, length=60))


def test_adaptive_lease_coherent_under_overflow():
    config = GPUConfig.tiny(protocol=Protocol.GTSC, ts_max=2047,
                            lease_policy=LeasePolicy.ADAPTIVE)
    kernel = random_kernel(7, warps=4, length=100, lines=4, p_store=0.5)
    gpu, stats = run_and_check(config, kernel)


# ---------------------------------------------------------------------------
# multi-kernel sequences
# ---------------------------------------------------------------------------

def test_sequence_returns_per_kernel_stats():
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    gpu = GPU(config)
    kernels = [
        Kernel("k1", [[load(0), store(0), fence()]]),
        Kernel("k2", [[load(0), fence()]]),
    ]
    results = gpu.run_sequence(kernels)
    assert len(results) == 2
    assert all(r.cycles > 0 for r in results)
    assert "k1" in results[0].config_desc
    assert "k2" in results[1].config_desc


def test_sequence_flushes_l1_between_kernels():
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    gpu = GPU(config)
    kernels = [
        Kernel("k1", [[load(0), fence()]]),
        Kernel("k2", [[load(0), fence()]]),
    ]
    results = gpu.run_sequence(kernels)
    # the second kernel's load must MISS (L1 was flushed) but be
    # served from the L2, not DRAM (the L2 keeps its data)
    assert results[1].counter("l1_hit") == 0
    assert results[1].counter("dram_reads") == 0


def test_sequence_resets_timestamps_at_boundaries():
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    gpu = GPU(config)
    writer = [store(0) for _ in range(5)] + [fence()]
    kernels = [Kernel("k1", [list(writer)]), Kernel("k2", [list(writer)])]
    results = gpu.run_sequence(kernels)
    domain = gpu.machine.timestamp_domain
    assert domain.epoch == 2  # one reset per kernel boundary
    assert sum(r.counter("kernel_ts_resets") for r in results) == 2


def test_sequence_values_persist_across_kernels():
    """Data written by kernel 1 is visible to kernel 2."""
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    gpu = GPU(config)
    kernels = [
        Kernel("producer", [[store(0), fence()]]),
        Kernel("consumer", [[load(0), fence()]]),
    ]
    gpu.run_sequence(kernels)
    final_load = gpu.machine.log.loads[-1]
    assert final_load.version == 1


@pytest.mark.parametrize("n_gpus", [1, 2])
def test_sequence_reports_the_latency_sums_of_run(n_gpus):
    """A one-kernel sequence carries the NoC (and, on a cluster, the
    interlink) latency sums that ``run`` reports for the same kernel."""
    config = GPUConfig.tiny(protocol=Protocol.GTSC, n_gpus=n_gpus)
    kernel = build_workload("PCX", scale=0.3, seed=1)
    ran = GPU(config, record_accesses=False).run(kernel)
    [sequenced] = GPU(config, record_accesses=False).run_sequence([kernel])
    names = ["noc_latency_sum"]
    if n_gpus > 1:
        names.append("interlink_latency_sum")
    for name in names:
        assert ran.counter(name) > 0
        assert sequenced.counters[name] == ran.counter(name), name


def test_sequence_warp_uids_do_not_collide():
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    gpu = GPU(config)
    kernels = [Kernel("k1", [[load(0), fence()]] * 2),
               Kernel("k2", [[load(1), fence()]] * 2)]
    gpu.run_sequence(kernels)
    uids = {r.warp_uid for r in gpu.machine.log.loads}
    assert len(uids) == 4


# ---------------------------------------------------------------------------
# coalescing unit
# ---------------------------------------------------------------------------

def test_unit_stride_coalesces_perfectly():
    result = unit_stride_access(base=0, threads=32, element_size=4,
                                line_size=128)
    assert result.line_addrs == [0]
    assert result.degree == 32.0


def test_unit_stride_across_line_boundary():
    result = unit_stride_access(base=64, threads=32, element_size=4,
                                line_size=128)
    assert result.line_addrs == [0, 1]
    assert result.transactions == 2


def test_large_stride_is_fully_divergent():
    result = strided_access(base=0, threads=8, stride=256, line_size=128)
    assert result.transactions == 8
    assert result.degree == 1.0


def test_duplicate_thread_addresses_merge():
    result = coalesce([0, 4, 8, 0, 4], line_size=128)
    assert result.line_addrs == [0]
    assert result.thread_count == 5


def test_coalesced_instructions():
    assert coalesced_load([0, 4, 200], line_size=128) == load(0, 1)
    assert coalesced_store([500], line_size=128) == store(3)


def test_coalesce_rejects_bad_line_size():
    with pytest.raises(ValueError):
        coalesce([0], line_size=0)


def test_coalesced_trace_runs_end_to_end():
    line = 128
    trace = [
        coalesced_load([i * 4 for i in range(32)], line),
        compute(3),
        coalesced_store([4096 + i * 4 for i in range(32)], line),
        fence(),
    ]
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    run_and_check(config, Kernel("coal", [trace]))


# ---------------------------------------------------------------------------
# IRIW litmus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", [Protocol.GTSC, Protocol.TC,
                                      Protocol.DISABLED])
def test_iriw_forbidden_under_sc(protocol):
    """Write atomicity under SC: readers never disagree on the order
    of two independent writes."""
    for seed in range(12):
        kernel = iriw(random.Random(seed))
        config = GPUConfig.tiny(protocol=protocol,
                                consistency=Consistency.SC)
        gpu = GPU(config)
        gpu.run(kernel)
        (r2_x, r2_y), (r3_y, r3_x) = iriw_outcome(gpu.machine.log)
        r2_split = r2_x >= 1 and r2_y == 0   # R2: X before Y
        r3_split = r3_y >= 1 and r3_x == 0   # R3: Y before X
        assert not (r2_split and r3_split), (
            f"{protocol} seed {seed}: IRIW violation"
        )
