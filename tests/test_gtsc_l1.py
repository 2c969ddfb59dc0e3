"""Controller-level tests for the G-TSC L1 (Figures 1a, 2, 3, 7, 8).

These drive a real machine (L1 + NoC + L2 + DRAM) through the L1's
SM-facing interface with hand-made warps, checking each arm of the
load/store flowcharts and the Section V mechanisms.
"""

import pytest

from repro.config import (
    CombiningPolicy,
    GPUConfig,
    Protocol,
    VisibilityPolicy,
)
from repro.gpu.machine import Machine
from repro.gpu.warp import Warp
from repro.protocols.factory import build_protocol
from repro.trace import pack_trace


def make_machine(**overrides):
    config = GPUConfig.tiny(protocol=Protocol.GTSC, **overrides)
    machine = Machine(config)
    build_protocol(machine)
    return machine


def make_warp(uid=0):
    return Warp(uid, pack_trace([]))


def complete_tracker():
    done = []
    return done, lambda: done.append(True)


def test_cold_miss_fills_and_advances_warp_ts():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = make_warp()
    done, cb = complete_tracker()
    assert l1.load(warp, 0, cb) is True
    machine.engine.run()
    assert done == [True]
    assert machine.stats.get("l1_miss") == 1
    assert machine.stats.get("dram_reads") == 1
    line = l1.cache.lookup(0)
    assert line is not None
    # DRAM fill: wts = mem_ts = 1, rts = 1 + lease
    assert line.wts == 1
    assert line.rts == 1 + machine.config.lease
    assert warp.ts == 1


def test_second_access_hits_in_l1():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = make_warp()
    done, cb = complete_tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    l1.load(warp, 0, cb)
    machine.engine.run()
    assert done == [True, True]
    assert machine.stats.get("l1_hit") == 1
    assert machine.stats.get("dram_reads") == 1  # no refetch


def test_expired_timestamp_triggers_renewal_not_data(tiny_config=None):
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = make_warp()
    done, cb = complete_tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    # push the warp's logical clock beyond the line's lease
    warp.ts = l1.cache.lookup(0).rts + 5
    l1.load(warp, 0, cb)
    machine.engine.run()
    assert done == [True, True]
    assert machine.stats.get("l1_expired_miss") == 1
    # the L2 answered with a data-less renewal (wts matched)
    assert machine.stats.get("l2_renewals") == 1
    assert l1.cache.lookup(0).rts >= warp.ts


def test_renewal_extends_lease_to_cover_warp():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = make_warp()
    done, cb = complete_tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    warp.ts = 40
    l1.load(warp, 0, cb)
    machine.engine.run()
    line = l1.cache.lookup(0)
    assert line.rts >= 40
    assert warp.ts == 40  # a renewal does not advance the clock


def test_store_gets_future_timestamp_and_unlocks():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = make_warp()
    done, cb = complete_tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    old_rts = l1.cache.lookup(0).rts
    l1.store(warp, 0, cb)
    assert l1.cache.lookup(0).pending_stores == 1
    machine.engine.run()
    assert done == [True, True]
    line = l1.cache.lookup(0)
    assert line.pending_stores == 0
    # Figure 5: wts = max(rts + 1, warp_ts) — scheduled in the future
    assert line.wts == old_rts + 1
    assert line.rts == line.wts + machine.config.lease
    # Figure 7b: the warp's clock jumps to the store's timestamp
    assert warp.ts == line.wts


def test_store_to_uncached_line_writes_through_without_allocation():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = make_warp()
    done, cb = complete_tracker()
    l1.store(warp, 0, cb)
    machine.engine.run()
    assert done == [True]
    assert l1.cache.lookup(0) is None  # no write-allocate
    assert warp.ts > 1                 # clock advanced to the store's wts


def test_delay_policy_blocks_other_warps_until_ack():
    machine = make_machine(visibility=VisibilityPolicy.DELAY)
    l1 = machine.l1s[0]
    writer, reader = make_warp(0), make_warp(1)
    done_w, cb_w = complete_tracker()
    done_r, cb_r = complete_tracker()
    l1.load(writer, 0, cb_w)
    machine.engine.run()
    l1.store(writer, 0, cb_w)
    # while the store is pending, another warp's load is delayed
    assert l1.load(reader, 0, cb_r) is True
    assert machine.stats.get("l1_locked_wait") == 1
    assert done_r == []
    machine.engine.run()
    assert done_r == [True]
    # the reader saw the new data and its clock reflects the store
    assert reader.ts >= writer.ts


def test_old_copy_policy_lets_other_warps_read_old_version():
    machine = make_machine(visibility=VisibilityPolicy.OLD_COPY)
    l1 = machine.l1s[0]
    writer, reader = make_warp(0), make_warp(1)
    done_w, cb_w = complete_tracker()
    done_r, cb_r = complete_tracker()
    l1.load(writer, 0, cb_w)
    machine.engine.run()
    old_version = l1.cache.lookup(0).version
    l1.store(writer, 0, cb_w)
    l1.load(reader, 0, cb_r)
    # the read hits immediately on the old copy
    machine.engine.run(until=machine.engine.now + 2)
    assert done_r == [True]
    load_rec = machine.log.loads[-1]
    assert load_rec.version == old_version
    machine.engine.run()
    assert done_w == [True, True]


def test_old_copy_policy_still_blocks_the_writer_itself():
    machine = make_machine(visibility=VisibilityPolicy.OLD_COPY)
    l1 = machine.l1s[0]
    writer = make_warp(0)
    done, cb = complete_tracker()
    l1.load(writer, 0, cb)
    machine.engine.run()
    l1.store(writer, 0, cb)
    done_rd, cb_rd = complete_tracker()
    l1.load(writer, 0, cb_rd)
    assert machine.stats.get("l1_locked_wait") == 1
    machine.engine.run()
    # once the ack arrives, the writer reads its own new value
    assert done_rd == [True]
    assert machine.log.loads[-1].version == machine.log.stores[-1].version


def test_mshr_combining_sends_one_request():
    machine = make_machine(combining=CombiningPolicy.MSHR)
    l1 = machine.l1s[0]
    w0, w1, w2 = make_warp(0), make_warp(1), make_warp(2)
    for warp in (w0, w1, w2):
        l1.load(warp, 0, lambda: None)
    machine.engine.run()
    # one BusRd for three waiters
    assert machine.stats.get("l2_access") == 1


def test_forward_all_sends_one_request_per_warp():
    machine = make_machine(combining=CombiningPolicy.FORWARD_ALL)
    l1 = machine.l1s[0]
    for uid in range(3):
        l1.load(make_warp(uid), 0, lambda: None)
    machine.engine.run()
    assert machine.stats.get("l2_access") == 3


def test_straggler_waiter_triggers_renewal(  ):
    """Figure 11: a combined waiter beyond the granted lease renews."""
    machine = make_machine(combining=CombiningPolicy.MSHR)
    l1 = machine.l1s[0]
    near, far = make_warp(0), make_warp(1)
    far.ts = 500  # way beyond the lease the first fill will grant
    done_near, cb_near = complete_tracker()
    done_far, cb_far = complete_tracker()
    l1.load(near, 0, cb_near)
    l1.load(far, 0, cb_far)
    machine.engine.run()
    assert done_near == [True]
    assert done_far == [True]
    assert machine.stats.get("l1_renewals") >= 1
    assert l1.cache.lookup(0).rts >= 500


def test_mshr_full_rejects_and_counts():
    machine = make_machine()
    l1 = machine.l1s[0]
    capacity = machine.config.l1_mshr_entries
    for addr in range(capacity):
        assert l1.load(make_warp(addr), addr, lambda: None) is True
    assert l1.load(make_warp(99), capacity + 1, lambda: None) is False
    assert machine.stats.get("l1_mshr_stall") == 1
    machine.engine.run()


def test_flush_clears_lines_and_warp_clocks():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = make_warp()
    l1.load(warp, 0, lambda: None)
    machine.engine.run()
    l1.store(warp, 0, lambda: None)
    machine.engine.run()
    assert warp.ts > 1
    l1.flush()
    assert l1.cache.occupancy() == 0
    assert warp.ts == 1


def test_hit_requires_lease_to_cover_warp_ts():
    """The two-condition hit rule of Figure 2."""
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = make_warp()
    l1.load(warp, 0, lambda: None)
    machine.engine.run()
    line = l1.cache.lookup(0)
    warp.ts = line.rts  # boundary: exactly at the lease end still hits
    hits_before = machine.stats.get("l1_hit")
    l1.load(warp, 0, lambda: None)
    machine.engine.run()
    assert machine.stats.get("l1_hit") == hits_before + 1
