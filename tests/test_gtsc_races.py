"""Edge-case races in the G-TSC controllers.

Each test manufactures one of the rare interleavings the controllers
handle explicitly: renewals arriving after the line was evicted,
responses crossing a timestamp reset, fills finding every way pinned
by pending stores, and stragglers under the forward-all policy.
"""

import pytest

from repro.config import (
    CombiningPolicy,
    Consistency,
    GPUConfig,
    Protocol,
)
from repro.core.messages import BusFill, BusRnw, BusWrAck
from repro.gpu.machine import Machine
from repro.gpu.warp import Warp
from repro.protocols.factory import build_protocol
from repro.trace import pack_trace

from tests.conftest import random_kernel, run_and_check


def make_machine(**overrides):
    config = GPUConfig.tiny(protocol=Protocol.GTSC, **overrides)
    machine = Machine(config)
    build_protocol(machine)
    return machine


def tracker():
    done = []
    return done, lambda: done.append(True)


def fill_line(machine, l1, warp, addr):
    l1.load(warp, addr, lambda: None)
    machine.engine.run()
    return l1.cache.lookup(addr)


# ---------------------------------------------------------------------------
# renewal arrives after the line was evicted
# ---------------------------------------------------------------------------

def test_renewal_for_evicted_line_refetches_data():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    fill_line(machine, l1, warp, 0)
    # force an expired-lease renewal request, but evict the line while
    # the renewal response is in flight
    warp.ts = 500
    done, cb = tracker()
    l1.load(warp, 0, cb)
    l1.cache.invalidate(0)          # the in-flight race
    machine.engine.run()
    assert done == [True]           # a full refetch rescued the load
    line = l1.cache.lookup(0)
    assert line is not None and line.rts >= 500


def test_direct_renewal_injection_with_no_line_is_safe():
    """A BusRnw for an absent line with no waiters must be a no-op."""
    machine = make_machine()
    l1 = machine.l1s[0]
    l1.receive(BusRnw(3, 0, rts=50, epoch=0))
    machine.engine.run()
    assert l1.cache.lookup(3) is None


# ---------------------------------------------------------------------------
# responses crossing a timestamp reset
# ---------------------------------------------------------------------------

def test_stale_epoch_fill_triggers_refetch():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    done, cb = tracker()
    l1.load(warp, 0, cb)
    # the domain resets while the fill is in flight; the L1 hears of
    # epoch 1 from another response first
    machine.timestamp_domain.overflow_reset()
    l1._epoch_reset(machine.timestamp_domain.epoch)
    machine.engine.run()
    # the stale fill forced a refetch, which completed the load
    assert done == [True]


def test_stale_epoch_write_ack_still_completes_store():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    fill_line(machine, l1, warp, 0)
    done, cb = tracker()
    l1.store(warp, 0, cb)
    machine.timestamp_domain.overflow_reset()
    l1._epoch_reset(machine.timestamp_domain.epoch)
    machine.engine.run()
    assert done == [True]
    # the warp's clock was reset and not corrupted by the stale ack
    assert warp.ts <= machine.config.lease * \
        machine.config.lease_max_factor


def test_lines_installed_after_reset_carry_new_epoch():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    machine.timestamp_domain.overflow_reset()
    l1._epoch_reset(machine.timestamp_domain.epoch)
    fill_line(machine, l1, warp, 0)
    assert l1.cache.lookup(0).epoch == 1


# ---------------------------------------------------------------------------
# fill with every way pinned by pending stores
# ---------------------------------------------------------------------------

def test_fill_bypasses_cache_when_all_ways_pinned():
    machine = make_machine()
    l1 = machine.l1s[0]
    config = machine.config
    warp = Warp(0, pack_trace([]))
    # pin both ways of set 0 with pending stores; the fill under test
    # is injected directly so the pins are still held when it lands
    set_stride = config.l1_sets
    pinned = [0, set_stride]
    for addr in pinned:
        fill_line(machine, l1, warp, addr)
    for addr in pinned:
        l1.store(warp, addr, lambda: None)
        assert l1.cache.lookup(addr).pending_stores == 1

    from repro.protocols.base import LoadWaiter
    done, cb = tracker()
    other = Warp(1, pack_trace([]))
    target = 2 * set_stride
    entry = l1.mshr.allocate(target)
    entry.waiters.append(LoadWaiter(other, cb, machine.engine.now))
    l1.receive(BusFill(target, 0, wts=1, rts=1 + config.lease,
                       version=0, epoch=0))
    machine.engine.step()   # fire the completion callback
    assert done == [True]
    # the fill was served without displacing a pinned line or caching
    assert l1.cache.lookup(target) is None
    for addr in pinned:
        assert l1.cache.lookup(addr) is not None
    machine.engine.run()    # drain the outstanding store acks


# ---------------------------------------------------------------------------
# forward-all interactions
# ---------------------------------------------------------------------------

def test_forward_all_straggler_still_completes():
    machine = make_machine(combining=CombiningPolicy.FORWARD_ALL)
    l1 = machine.l1s[0]
    near, far = Warp(0, pack_trace([])), Warp(1, pack_trace([]))
    far.ts = 400
    done_near, cb_near = tracker()
    done_far, cb_far = tracker()
    l1.load(near, 0, cb_near)
    l1.load(far, 0, cb_far)
    machine.engine.run()
    assert done_near == [True] and done_far == [True]


def test_forward_all_coherent_under_stress():
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.SC,
                            combining=CombiningPolicy.FORWARD_ALL)
    run_and_check(config, random_kernel(3, warps=4, length=60, lines=4))


# ---------------------------------------------------------------------------
# acks arriving out of issue order (L2 MSHR-retry reordering)
# ---------------------------------------------------------------------------

def test_crossed_write_acks_pair_by_version():
    """Regression: the L2's MSHR-full retry path re-enters the bank
    pipeline on a timer, so two stores from one SM to one line can be
    performed (and acknowledged) out of issue order.  The acks must be
    matched to their own pending stores by version — FIFO popping would
    cross the warps' timestamp updates and tear the records."""
    machine = make_machine()
    l1 = machine.l1s[0]
    warp_a, warp_b = Warp(0, pack_trace([])), Warp(1, pack_trace([]))
    line = fill_line(machine, l1, warp_a, 0)
    line.pending_stores = 2
    done_a, cb_a = tracker()
    done_b, cb_b = tracker()
    from repro.protocols.base import PendingStore
    from collections import deque
    l1._pending_writes[0] = deque([
        PendingStore(warp_a, 0, 1, cb_a, 0),
        PendingStore(warp_b, 0, 2, cb_b, 0),
    ])
    # version 2 was performed first at the L2 (lower wts), version 1
    # after it — acks arrive in performance order, not issue order
    l1.receive(BusWrAck(0, 0, wts=30, rts=40, epoch=0, version=2))
    l1.receive(BusWrAck(0, 0, wts=50, rts=60, epoch=0, version=1))
    machine.engine.run()
    assert done_a == [True] and done_b == [True]
    # each warp advanced to its *own* store's timestamp
    assert warp_b.ts == 30 and warp_a.ts == 50
    refreshed = l1.cache.lookup(0)
    assert refreshed.version == 1       # the logically newest write
    assert refreshed.pending_stores == 0
    by_version = {r.version: r for r in machine.log.stores}
    assert by_version[1].warp_uid == 0 and by_version[1].logical_ts == 50
    assert by_version[2].warp_uid == 1 and by_version[2].logical_ts == 30


def test_write_ack_matching_no_pending_version_raises():
    """An ack whose version no pending store holds is a protocol bug;
    pairing it with the head of the queue would complete the wrong
    warp's store, so the L1 refuses it and names the line and version."""
    machine = make_machine()
    l1 = machine.l1s[0]
    warp_a, warp_b = Warp(0, pack_trace([])), Warp(1, pack_trace([]))
    line = fill_line(machine, l1, warp_a, 0x40)
    line.pending_stores = 2
    from repro.protocols.base import PendingStore
    from collections import deque
    l1._pending_writes[0x40] = deque([
        PendingStore(warp_a, 0x40, 1, lambda: None, 0),
        PendingStore(warp_b, 0x40, 2, lambda: None, 0),
    ])
    with pytest.raises(RuntimeError, match="line 0x40 carries version 9"):
        l1.receive(BusWrAck(0x40, 0, wts=30, rts=40, epoch=0, version=9))
    assert [p.version for p in l1._pending_writes[0x40]] == [1, 2]


# ---------------------------------------------------------------------------
# write acks racing newer fills
# ---------------------------------------------------------------------------

def test_old_write_ack_does_not_clobber_newer_line_state():
    """An ack whose wts is below the line's current wts (the line was
    refreshed by a newer fill meanwhile) must not regress it."""
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    line = fill_line(machine, l1, warp, 0)
    line.wts, line.rts, line.version = 90, 120, 7  # pretend newer state
    line.pending_stores = 1
    from repro.protocols.base import PendingStore
    from collections import deque
    l1._pending_writes[0] = deque([PendingStore(warp, 0, 3,
                                                lambda: None, 0)])
    l1.receive(BusWrAck(0, 0, wts=50, rts=60, epoch=0))
    machine.engine.run()
    refreshed = l1.cache.lookup(0)
    assert refreshed.wts == 90          # not regressed
    assert refreshed.version == 7
    assert refreshed.pending_stores == 0
