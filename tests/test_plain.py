"""Tests for the two non-protocol baselines (BL and Baseline W/L1)."""

from repro.config import CombiningPolicy, Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.gpu.machine import Machine
from repro.gpu.warp import Warp
from repro.protocols.factory import build_protocol
from repro.trace import Kernel, fence, load, pack_trace, store


def make_machine(protocol, **overrides):
    config = GPUConfig.tiny(protocol=protocol, **overrides)
    machine = Machine(config)
    build_protocol(machine)
    return machine


def tracker():
    done = []
    return done, lambda: done.append(True)


# ---------------------------------------------------------------------------
# BL: L1 disabled
# ---------------------------------------------------------------------------

def test_disabled_forwards_every_load_to_l2():
    machine = make_machine(Protocol.DISABLED)
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    done, cb = tracker()
    for _ in range(3):
        l1.load(warp, 0, cb)
    machine.engine.run()
    assert done == [True] * 3
    # no combining: three separate L2 accesses
    assert machine.stats.get("l2_access") == 3
    # and no L1 counters at all
    assert machine.stats.get("l1_access") == 0


def test_disabled_store_acknowledged_by_l2():
    machine = make_machine(Protocol.DISABLED)
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    done, cb = tracker()
    l1.store(warp, 0, cb)
    machine.engine.run()
    assert done == [True]
    assert machine.log.stores[0].version == 1


def test_disabled_reads_see_latest_l2_value():
    """The BL is trivially coherent: L2 serializes everything."""
    config = GPUConfig.tiny(protocol=Protocol.DISABLED,
                            consistency=Consistency.SC)
    kernel = Kernel("bl", [
        [store(0), fence(), load(0), fence()],
        [store(0), fence(), load(0), fence()],
    ])
    gpu = GPU(config)
    gpu.run(kernel)
    log = gpu.machine.log
    # each warp's own load happens after its own (acknowledged) store,
    # so it must observe its own version or a later one
    for record in log.loads:
        own_store = next(s for s in log.stores
                         if s.warp_uid == record.warp_uid)
        assert record.version >= own_store.version


def test_disabled_every_access_crosses_noc():
    config = GPUConfig.tiny(protocol=Protocol.DISABLED)
    kernel = Kernel("bl", [[load(0), load(0), load(0), fence()]])
    stats = GPU(config).run(kernel)
    # 3 requests + 3 fills
    assert stats.counter("noc_messages") == 6


# ---------------------------------------------------------------------------
# Baseline W/L1: non-coherent
# ---------------------------------------------------------------------------

def test_noncoherent_caches_and_hits():
    machine = make_machine(Protocol.NONCOHERENT)
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    done, cb = tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    l1.load(warp, 0, cb)
    machine.engine.run()
    assert machine.stats.get("l1_hit") == 1
    assert machine.stats.get("dram_reads") == 1


def test_noncoherent_lines_never_expire():
    machine = make_machine(Protocol.NONCOHERENT)
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    l1.load(warp, 0, lambda: None)
    machine.engine.run()
    # eons later it still hits: no lease of any kind
    done, cb = tracker()
    machine.engine.schedule(1_000_000, lambda: l1.load(warp, 0, cb))
    machine.engine.run()
    assert machine.stats.get("l1_hit") == 1
    assert done == [True]


def test_noncoherent_own_sm_sees_own_store():
    machine = make_machine(Protocol.NONCOHERENT)
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    l1.load(warp, 0, lambda: None)
    machine.engine.run()
    l1.store(warp, 0, lambda: None)
    machine.engine.run()
    done, cb = tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    assert machine.log.loads[-1].version == 1


def test_noncoherent_is_indeed_incoherent_across_sms():
    """The defining property: remote stores are NOT observed while a
    stale local copy exists.  (This is why the W/L1 bar only appears
    for the second benchmark group in Figure 12.)"""
    machine = make_machine(Protocol.NONCOHERENT)
    l1_a, l1_b = machine.l1s[0], machine.l1s[1]
    wa, wb = Warp(0, pack_trace([])), Warp(1, pack_trace([]))
    l1_a.load(wa, 0, lambda: None)   # SM0 caches version 0
    machine.engine.run()
    l1_b.store(wb, 0, lambda: None)  # SM1 writes version 1
    machine.engine.run()
    l1_a.load(wa, 0, lambda: None)   # SM0 still reads version 0
    machine.engine.run()
    assert machine.log.loads[-1].version == 0


def test_noncoherent_combines_misses_in_mshr():
    machine = make_machine(Protocol.NONCOHERENT)
    l1 = machine.l1s[0]
    for uid in range(3):
        l1.load(Warp(uid, pack_trace([])), 0, lambda: None)
    machine.engine.run()
    assert machine.stats.get("l2_access") == 1


def test_noncoherent_forward_all_sends_every_miss():
    """The forward-all ablation reaches the non-coherent L1 as it does
    the others: each missing load sends its own read."""
    machine = make_machine(Protocol.NONCOHERENT,
                           combining=CombiningPolicy.FORWARD_ALL)
    l1 = machine.l1s[0]
    done, cb = tracker()
    for uid in range(3):
        l1.load(Warp(uid, pack_trace([])), 0, cb)
    machine.engine.run()
    assert machine.stats.get("l2_access") == 3
    assert done == [True] * 3


def test_plain_l2_evicts_dirty_lines_with_writeback():
    machine = make_machine(Protocol.DISABLED)
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    sets = machine.config.l2_sets
    stride = sets * machine.config.num_l2_banks
    l1.store(warp, 0, lambda: None)
    machine.engine.run()
    for k in range(1, machine.config.l2_assoc + 1):
        l1.load(warp, k * stride, lambda: None)
        machine.engine.run()
    assert machine.memory_image.get(0) == 1
    # refetch returns the written-back version
    l1.load(warp, 0, lambda: None)
    machine.engine.run()
    assert machine.log.loads[-1].version == 1
