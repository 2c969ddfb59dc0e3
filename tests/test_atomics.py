"""Atomic read-modify-write support across every protocol.

GPU atomics execute at the shared L2 (the point of coherence).  The
defining invariant, checked by :func:`check_atomicity`, is that each
atomic's observed old value is the immediate predecessor of its own
write in the line's global write order — concurrent atomics from many
SMs must serialize without tearing.
"""

import random

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.trace import Kernel, atomic, compute, fence, load, store
from repro.validate.checker import check_atomicity, check_gtsc_log

from tests.conftest import run_and_check

COUNTER = 0


def counter_kernel(warps=4, increments=6, pad_seed=0):
    """Every warp atomically increments one shared counter line."""
    rng = random.Random(pad_seed)
    traces = []
    for _ in range(warps):
        trace = []
        for _ in range(increments):
            trace.append(compute(rng.randrange(1, 5)))
            trace.append(atomic(COUNTER))
        trace.append(fence())
        traces.append(trace)
    return Kernel("counter", traces)


ALL_PROTOCOLS = [Protocol.GTSC, Protocol.TC, Protocol.DISABLED,
                 Protocol.NONCOHERENT]


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("consistency", [Consistency.SC, Consistency.RC])
def test_concurrent_increments_never_tear(protocol, consistency):
    config = GPUConfig.tiny(protocol=protocol, consistency=consistency)
    kernel = counter_kernel()
    gpu = GPU(config)
    gpu.run(kernel)
    log, versions = gpu.machine.log, gpu.machine.versions
    assert len(log.atomics) == 4 * 6
    assert check_atomicity(log, versions) == 24
    # the counter reached exactly warps * increments
    assert versions.latest(COUNTER) == 24


def test_gtsc_atomic_full_coherence_check():
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    gpu, _ = run_and_check(config, counter_kernel(pad_seed=3))
    assert len(gpu.machine.log.atomics) == 24


def test_gtsc_atomic_advances_warp_clock():
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    kernel = Kernel("a", [[atomic(COUNTER), fence()]])
    gpu, _ = run_and_check(config, kernel)
    record = gpu.machine.log.atomics[0]
    assert record.logical_ts > 1  # scheduled after the initial lease


def test_gtsc_atomic_mixed_with_loads_and_stores():
    rng = random.Random(9)
    traces = []
    for w in range(4):
        trace = []
        for _ in range(20):
            r = rng.random()
            if r < 0.4:
                trace.append(load(rng.randrange(4)))
            elif r < 0.6:
                trace.append(store(rng.randrange(4)))
            elif r < 0.8:
                trace.append(atomic(rng.randrange(4)))
            else:
                trace.append(fence())
        trace.append(fence())
        traces.append(trace)
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    run_and_check(config, Kernel("mix", traces))


def test_gtsc_atomic_blocks_same_sm_reads_until_ack():
    """Update visibility applies to atomics exactly as to stores."""
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    kernel = Kernel("vis", [
        [load(COUNTER), atomic(COUNTER), fence()],
        [load(COUNTER), compute(2), load(COUNTER), fence()],
    ])
    gpu, stats = run_and_check(config, kernel)


def test_atomic_read_sees_latest_after_sc_sequence():
    """SC: atomic after a store by the same warp reads that store."""
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.SC)
    kernel = Kernel("seq", [[store(COUNTER), atomic(COUNTER), fence()]])
    gpu, _ = run_and_check(config, kernel)
    record = gpu.machine.log.atomics[0]
    store_rec = gpu.machine.log.stores[0]
    assert record.old_version == store_rec.version


def test_tc_strong_atomic_waits_for_leases():
    """TC-Strong parks atomics behind unexpired leases like stores."""
    config = GPUConfig.tiny(protocol=Protocol.TC,
                            consistency=Consistency.SC)
    kernel = Kernel("wait", [
        [load(COUNTER), compute(2), fence()],     # SM0 takes a lease
        [compute(10), atomic(COUNTER), fence()],  # SM1's atomic waits
    ])
    stats = GPU(config).run(kernel)
    assert stats.counter("l2_write_stalls") >= 1
    assert stats.cycles >= config.tc_lease


def test_tc_weak_atomic_returns_gwct():
    config = GPUConfig.tiny(protocol=Protocol.TC,
                            consistency=Consistency.RC)
    kernel = Kernel("gwct", [
        [load(COUNTER), compute(2), fence()],
        [compute(10), atomic(COUNTER), fence(), store(1), fence()],
    ])
    stats = GPU(config).run(kernel)
    # the fence after the atomic waited for global visibility
    assert stats.counter("fence_wait_cycles") > 0


def test_atomics_count_as_memory_instructions():
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    kernel = Kernel("cnt", [[atomic(COUNTER), fence()]])
    stats = GPU(config).run(kernel)
    assert stats.counter("mem_instructions") == 1
    assert stats.counter("l1_atomic") == 1
    assert stats.counter("l2_atomics") == 1


def test_atomic_on_uncached_line_fetches_from_dram():
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    kernel = Kernel("cold", [[atomic(COUNTER), fence()]])
    stats = GPU(config).run(kernel)
    assert stats.counter("dram_reads") == 1


def test_atomicity_checker_catches_torn_rmw():
    """The checker itself must reject a fabricated torn atomic."""
    from repro.validate.versions import AccessLog, AtomicRecord, VersionStore
    versions = VersionStore()
    for version in (1, 2, 3):
        assert versions.new_version(0) == version
        versions.record_wts(0, version, wts=version * 10)
    log = AccessLog()
    # claims to have read version 1 while writing version 3 — but
    # version 2 intervened
    log.atomics.append(AtomicRecord(
        warp_uid=0, addr=0, old_version=1, new_version=3,
        logical_ts=30, epoch=0, issue_cycle=0, complete_cycle=5))
    with pytest.raises(Exception, match="torn"):
        check_atomicity(log, versions)


def contention_kernel(warps, rounds, counters=4, seed=7):
    """Every warp reads a shared counter line and then atomically
    updates one: the hot-spot pattern of histogram kernels."""
    rng = random.Random(seed)
    traces = []
    for _ in range(warps):
        trace = []
        for _ in range(rounds):
            trace.append(compute(rng.randrange(1, 6)))
            # the read before the update is what TC-Strong's atomic
            # must wait out
            trace.append(load(rng.randrange(counters)))
            trace.append(compute(2))
            trace.append(atomic(rng.randrange(counters)))
        trace.append(fence())
        traces.append(trace)
    return Kernel("atomic-contention", traces)


@pytest.mark.parametrize("consistency", [Consistency.SC, Consistency.RC])
def test_atomic_contention_loses_no_update(consistency):
    """12 warps x 6 atomics on 4 small-preset counter lines: every
    protocol keeps every update, and under SC G-TSC's stall-free
    atomics beat TC-Strong's, which park behind leases."""
    warps, rounds = 12, 6
    kernel = contention_kernel(warps, rounds)
    cycles = {}
    for protocol in (Protocol.GTSC, Protocol.TC, Protocol.DISABLED):
        gpu = GPU(GPUConfig.small(protocol=protocol,
                                  consistency=consistency))
        cycles[protocol] = gpu.run(kernel).cycles
        versions = gpu.machine.versions
        assert sum(versions.latest(c) for c in range(4)) == warps * rounds
    if consistency is Consistency.SC:
        assert cycles[Protocol.GTSC] < cycles[Protocol.TC]
