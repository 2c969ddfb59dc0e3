"""Tests for the conventional MSI directory protocol (Section II-C).

Controller-level checks of the directory state machine plus
system-level coherence: MESI is the paper's motivating strawman, but
it still has to be *correct* to make the traffic comparison honest.
"""

import random

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.gpu.machine import Machine
from repro.gpu.warp import Warp
from repro.protocols.factory import build_protocol
from repro.protocols.mesi import _MODIFIED, _SHARED
from repro.trace import (
    Kernel,
    atomic,
    compute,
    fence,
    load,
    pack_trace,
    store,
)
from repro.workloads.litmus import (
    iriw,
    iriw_outcome,
    message_passing,
    mp_outcomes,
    observed_versions,
    single_location,
    store_buffering,
)

from tests.conftest import random_kernel


def make_machine(**overrides):
    config = GPUConfig.tiny(protocol=Protocol.MESI, **overrides)
    machine = Machine(config)
    build_protocol(machine)
    return machine


def tracker():
    done = []
    return done, lambda: done.append(True)


# ---------------------------------------------------------------------------
# controller-level
# ---------------------------------------------------------------------------

def test_load_installs_shared():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    done, cb = tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    assert done == [True]
    assert l1.cache.lookup(0).expiry == _SHARED


def test_store_acquires_ownership_then_hits_locally():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    done, cb = tracker()
    l1.store(warp, 0, cb)
    machine.engine.run()
    assert done == [True]
    assert l1.cache.lookup(0).expiry == _MODIFIED
    # the second store is a pure local hit: no new directory traffic
    l2_before = machine.stats.get("l2_access")
    l1.store(warp, 0, cb)
    machine.engine.run()
    assert done == [True, True]
    assert machine.stats.get("l2_access") == l2_before
    assert machine.stats.get("l1_store_hit_m") == 1


def test_write_invalidates_remote_sharers():
    machine = make_machine()
    reader_l1, writer_l1 = machine.l1s[0], machine.l1s[1]
    reader, writer = Warp(0, pack_trace([])), Warp(1, pack_trace([]))
    reader_l1.load(reader, 0, lambda: None)
    machine.engine.run()
    assert reader_l1.cache.lookup(0) is not None
    writer_l1.store(writer, 0, lambda: None)
    machine.engine.run()
    # the reader's copy is gone and the directory counted the Inv
    assert reader_l1.cache.lookup(0) is None
    assert machine.stats.get("dir_invalidations") == 1
    assert machine.stats.get("l1_invalidations_received") == 1


def test_read_recalls_modified_owner():
    machine = make_machine()
    writer_l1, reader_l1 = machine.l1s[0], machine.l1s[1]
    writer, reader = Warp(0, pack_trace([])), Warp(1, pack_trace([]))
    writer_l1.store(writer, 0, lambda: None)
    machine.engine.run()
    done, cb = tracker()
    reader_l1.load(reader, 0, cb)
    machine.engine.run()
    assert done == [True]
    assert machine.stats.get("dir_recalls") == 1
    # the reader observed the writer's value
    assert machine.log.loads[-1].version == 1
    # and the owner's copy was downgraded out of M
    owner_line = writer_l1.cache.lookup(0)
    assert owner_line is None or owner_line.expiry != _MODIFIED


def test_silent_share_eviction_gets_harmless_invalidation():
    machine = make_machine()
    l1_a, l1_b = machine.l1s[0], machine.l1s[1]
    wa, wb = Warp(0, pack_trace([])), Warp(1, pack_trace([]))
    l1_a.load(wa, 0, lambda: None)
    machine.engine.run()
    l1_a.cache.invalidate(0)          # silent S eviction
    l1_b.store(wb, 0, lambda: None)   # directory still thinks A shares
    machine.engine.run()
    assert machine.stats.get("l1_stale_invalidations") == 1


def test_modified_eviction_writes_back():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    l1.store(warp, 0, lambda: None)
    machine.engine.run()
    # force the M line out with conflicting fills
    sets = machine.config.l1_sets
    for k in range(1, machine.config.l1_assoc + 1):
        l1.load(warp, k * sets, lambda: None)
        machine.engine.run()
    # the writeback landed at the L2
    bank = machine.l2_banks[0]
    line = bank.cache.lookup(0)
    assert line is not None and line.version == 1


def test_directory_eviction_recalls_copies():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    l1.load(warp, 0, lambda: None)
    machine.engine.run()
    sets = machine.config.l2_sets
    stride = sets * machine.config.num_l2_banks
    for k in range(1, machine.config.l2_assoc + 1):
        l1.load(warp, k * stride, lambda: None)
        machine.engine.run()
    assert machine.stats.get("dir_recall_invalidations") >= 1
    assert l1.cache.lookup(0) is None  # recalled


# ---------------------------------------------------------------------------
# system-level coherence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("consistency", [Consistency.SC, Consistency.RC])
def test_random_mixes_complete_and_stay_per_location_coherent(
        consistency):
    from repro.validate.checker import check_per_location_monotonic
    for seed in (1, 2, 3, 4):
        config = GPUConfig.tiny(protocol=Protocol.MESI,
                                consistency=consistency)
        kernel = random_kernel(seed, warps=4, length=50, lines=6)
        gpu = GPU(config)
        stats = gpu.run(kernel, max_events=2_000_000)
        assert stats.counter("warps_retired") == kernel.num_warps
        # per-location: no reader ever sees the write order backwards
        checked = check_per_location_monotonic(gpu.machine.log,
                                               gpu.machine.versions)
        assert checked == len(gpu.machine.log.loads)


def test_message_passing_forbidden_outcome_never_occurs():
    for seed in range(8):
        config = GPUConfig.tiny(protocol=Protocol.MESI,
                                consistency=Consistency.SC)
        gpu = GPU(config)
        gpu.run(message_passing(random.Random(seed)))
        for flag, data in mp_outcomes(gpu.machine.log):
            assert not (flag >= 1 and data == 0)


def test_store_buffering_forbidden_under_sc():
    for seed in range(8):
        config = GPUConfig.tiny(protocol=Protocol.MESI,
                                consistency=Consistency.SC)
        gpu = GPU(config)
        gpu.run(store_buffering(random.Random(seed)))
        log = gpu.machine.log
        r0 = observed_versions(log, warp_uid=0, addr=10)
        r1 = observed_versions(log, warp_uid=1, addr=3)
        assert not (r0[0] == 0 and r1[0] == 0)


def test_iriw_forbidden_under_sc():
    for seed in range(8):
        config = GPUConfig.tiny(protocol=Protocol.MESI,
                                consistency=Consistency.SC)
        gpu = GPU(config)
        gpu.run(iriw(random.Random(seed)))
        (r2_x, r2_y), (r3_y, r3_x) = iriw_outcome(gpu.machine.log)
        assert not ((r2_x >= 1 and r2_y == 0)
                    and (r3_y >= 1 and r3_x == 0))


def test_atomics_never_tear():
    from repro.validate.checker import check_atomicity
    traces = []
    for _ in range(4):
        traces.append([atomic(0) for _ in range(5)] + [fence()])
    config = GPUConfig.tiny(protocol=Protocol.MESI,
                            consistency=Consistency.RC)
    gpu = GPU(config)
    gpu.run(Kernel("atm", traces))
    assert check_atomicity(gpu.machine.log, gpu.machine.versions) == 20
    assert gpu.machine.versions.latest(0) == 20


def test_atomic_recalls_requesters_own_modified_copy():
    """Regression: an atomic racing its own SM's store-ownership grant.

    Two warps on one SM: one stores to a line (GetM in flight), the
    other issues an atomic to the same line.  The DataM grant lands
    first, so the store completes *locally* in M — the newest data sits
    in the requester's own L1 when the directory performs the RMW.  The
    directory must recall the owner's copy even though the owner is the
    requesting SM, or the atomic reads the stale L2 version (a tear).
    """
    from repro.validate.checker import check_atomicity
    kernel = Kernel("own", [
        [load(0), load(1), atomic(2), fence()],
        [load(0), fence()],
        [load(0), store(2), fence()],
    ])
    for consistency in (Consistency.SC, Consistency.RC):
        config = GPUConfig.tiny(protocol=Protocol.MESI,
                                consistency=consistency)
        gpu = GPU(config)
        gpu.run(kernel)
        log, versions = gpu.machine.log, gpu.machine.versions
        assert check_atomicity(log, versions) == len(log.atomics) == 1


def test_final_state_matches_other_protocols_on_race_free_kernel():
    kernel = Kernel("spsc", [
        [store(0), fence(), store(1), fence()],
        [load(0), compute(3), load(1), fence()],
    ])
    finals = []
    for protocol in (Protocol.MESI, Protocol.GTSC, Protocol.DISABLED):
        config = GPUConfig.tiny(protocol=protocol,
                                consistency=Consistency.SC)
        gpu = GPU(config)
        gpu.run(kernel)
        finals.append([gpu.machine.versions.latest(a) for a in (0, 1)])
    assert finals[0] == finals[1] == finals[2] == [1, 1]


def test_write_locality_is_mesis_one_advantage():
    """A warp re-writing its own line pays the directory once."""
    trace = [store(0) for _ in range(10)] + [fence()]
    mesi = GPUConfig.tiny(protocol=Protocol.MESI,
                          consistency=Consistency.RC)
    gtsc = GPUConfig.tiny(protocol=Protocol.GTSC,
                          consistency=Consistency.RC)
    mesi_stats = GPU(mesi).run(Kernel("w", [list(trace)]))
    gtsc_stats = GPU(gtsc).run(Kernel("w", [list(trace)]))
    # MESI: one GetM + local hits; G-TSC: ten write-throughs
    assert mesi_stats.noc_bytes < gtsc_stats.noc_bytes


def test_sharing_costs_mesi_invalidation_traffic():
    """Cross-SM read-write sharing is where the directory pays."""
    kernel = Kernel("pingpong", [
        [store(0), fence(), load(1), fence()] * 4,
        [store(1), fence(), load(0), fence()] * 4,
    ])
    mesi = GPUConfig.tiny(protocol=Protocol.MESI,
                          consistency=Consistency.SC)
    stats = GPU(mesi).run(kernel)
    assert stats.counter("dir_invalidations") \
        + stats.counter("dir_recalls") > 0
