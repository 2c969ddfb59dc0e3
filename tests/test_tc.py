"""Tests for the Temporal Coherence baseline (Section II-D)."""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.gpu.machine import Machine
from repro.gpu.warp import Warp
from repro.protocols.factory import build_protocol
from repro.protocols.tc import TCFill, TCRd, TCWr, TCWrAck
from repro.trace import Kernel, compute, fence, load, pack_trace, store


def make_machine(consistency=Consistency.SC, **overrides):
    config = GPUConfig.tiny(protocol=Protocol.TC, consistency=consistency,
                            **overrides)
    machine = Machine(config)
    build_protocol(machine)
    return machine


def tracker():
    done = []
    return done, lambda: done.append(True)


# ---------------------------------------------------------------------------
# L1 behaviour
# ---------------------------------------------------------------------------

def test_fill_grants_physical_lease():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    done, cb = tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    line = l1.cache.lookup(0)
    assert line is not None
    assert line.expiry > machine.engine.now
    assert done == [True]


def test_hit_within_lease_miss_after_expiry():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    done, cb = tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    l1.load(warp, 0, cb)      # inside the lease: hit
    machine.engine.run()
    assert machine.stats.get("l1_hit") == 1
    # jump physical time past the lease: self-invalidation
    expiry = l1.cache.lookup(0).expiry
    machine.engine.schedule(expiry + 1, lambda: l1.load(warp, 0, cb))
    machine.engine.run()
    assert machine.stats.get("l1_expired_miss") == 1
    assert done == [True] * 3


def test_store_invalidates_local_copy():
    machine = make_machine()
    l1 = machine.l1s[0]
    warp = Warp(0, pack_trace([]))
    done, cb = tracker()
    l1.load(warp, 0, cb)
    machine.engine.run()
    l1.store(warp, 0, cb)
    assert l1.cache.lookup(0) is None  # write-through, no-allocate
    machine.engine.run()
    assert done == [True, True]


# ---------------------------------------------------------------------------
# TC-Strong: write stalls
# ---------------------------------------------------------------------------

def test_strong_write_waits_for_lease_expiry():
    machine = make_machine(Consistency.SC)
    l1_a, l1_b = machine.l1s[0], machine.l1s[1]
    reader, writer = Warp(0, pack_trace([])), Warp(1, pack_trace([]))
    done_r, cb_r = tracker()
    done_w, cb_w = tracker()
    # SM0 takes a lease on line 0
    l1_a.load(reader, 0, cb_r)
    machine.engine.run()
    lease_end = machine.l2_banks[0].cache.lookup(0).expiry
    # SM1 writes: must wait for SM0's lease
    l1_b.store(writer, 0, cb_w)
    machine.engine.run()
    assert done_w == [True]
    assert machine.engine.now >= lease_end
    assert machine.stats.get("l2_write_stalls") == 1
    assert machine.stats.get("l2_write_stall_cycles") > 0


def test_strong_reads_queue_behind_waiting_write():
    """Section II-D3: a delayed write delays all subsequent reads."""
    machine = make_machine(Consistency.SC)
    l1_a, l1_b = machine.l1s[0], machine.l1s[1]
    reader, writer, late = Warp(0, pack_trace([])), Warp(1, pack_trace([])), Warp(2, pack_trace([]))
    l1_a.load(reader, 0, lambda: None)
    machine.engine.run()
    lease_end = machine.l2_banks[0].cache.lookup(0).expiry
    late_done = []
    l1_b.store(writer, 0, lambda: None)
    # give the write a head start so it is parked before the read
    machine.engine.run(until=machine.engine.now + 15)
    l1_b.load(late, 0, lambda: late_done.append(machine.engine.now))
    machine.engine.run()
    assert late_done and late_done[0] >= lease_end
    assert machine.stats.get("l2_blocked_requests") >= 1
    # the queued read returned the *new* version (it ordered after)
    assert machine.log.loads[-1].version == 1


def test_weak_write_completes_immediately_with_gwct():
    machine = make_machine(Consistency.RC)
    l1_a, l1_b = machine.l1s[0], machine.l1s[1]
    reader, writer = Warp(0, pack_trace([])), Warp(1, pack_trace([]))
    l1_a.load(reader, 0, lambda: None)
    machine.engine.run()
    lease_end = machine.l2_banks[0].cache.lookup(0).expiry
    done_w, cb_w = tracker()
    start = machine.engine.now
    l1_b.store(writer, 0, cb_w)
    machine.engine.run()
    assert done_w == [True]
    # no lease stall: completed in a NoC round trip
    assert machine.engine.now < lease_end
    # but the GWCT records when the write becomes globally visible
    assert writer.gwct == lease_end
    assert machine.stats.get("l2_write_stalls") == 0


# ---------------------------------------------------------------------------
# system level
# ---------------------------------------------------------------------------

def test_tc_weak_fence_waits_for_gwct():
    config = GPUConfig.tiny(protocol=Protocol.TC, consistency=Consistency.RC)
    # SM0 reads line 0 (long lease); SM1 writes it and fences
    kernel = Kernel("gwct", [
        [load(0), compute(2), fence()],
        [compute(10), store(0), fence(), load(1), fence()],
    ])
    gpu = GPU(config)
    stats = gpu.run(kernel)
    assert stats.counter("fence_wait_cycles") > 0
    # the fence completed only after the writer's GWCT passed
    assert stats.cycles >= config.tc_lease


def test_tc_strong_inclusion_stalls_replacement():
    """Section II-D2: lease-pinned L2 lines block eviction."""
    config = GPUConfig.tiny(protocol=Protocol.TC, consistency=Consistency.SC,
                            tc_lease=100_000)
    machine = Machine(config)
    build_protocol(machine)
    l1 = machine.l1s[0]
    sets = config.l2_sets
    stride = sets * config.num_l2_banks
    warp = Warp(0, pack_trace([]))
    # lease-pin every way of one L2 set, then fetch one more line
    for k in range(config.l2_assoc):
        l1.load(warp, k * stride, lambda: None)
        machine.engine.run()
    done, cb = tracker()
    l1.load(warp, config.l2_assoc * stride, cb)
    machine.engine.run(until=machine.engine.now + 200)
    assert machine.stats.get("l2_evict_stall") > 0
    assert done == []  # still stalled behind the pinned set


_L2_ASSOC = GPUConfig.tiny().l2_assoc


@settings(max_examples=200, deadline=None)
@given(expiries=st.lists(st.integers(min_value=0, max_value=64),
                         min_size=_L2_ASSOC, max_size=_L2_ASSOC),
       blocked_ways=st.sets(st.integers(min_value=0,
                                        max_value=_L2_ASSOC - 1)),
       now=st.integers(min_value=0, max_value=64),
       exact_bound=st.booleans())
def test_retry_probe_agrees_with_victim_search(expiries, blocked_ways, now,
                                               exact_bound):
    """``_retry_fill`` stalls exactly when the full install would.

    One full L2 set with drawn lease ends and write-blocked ways; the
    set's cached lower bound is seeded with 0 (the min() path) or the
    true minimum (the O(1) path) — both valid bounds.
    """
    machine = make_machine()
    bank = machine.l2_banks[0]
    cache = bank.cache
    set_index = 1 % cache.num_sets
    ways = [set_index + way * cache.num_sets for way in range(cache.assoc)]
    for addr, expiry in zip(ways, expiries):
        line, _ = cache.allocate(addr)
        line.expiry = expiry
    for way in blocked_ways:
        bank._blocked[ways[way]] = deque()
    bank._set_min[set_index] = min(expiries) if exact_bound else 0
    missing = set_index + cache.assoc * cache.num_sets

    bank._lease_gate = now
    expect_stall = cache._victim_slot(missing, bank._lease_free) == -1
    machine.engine.at(now, bank._retry_fill, missing)
    machine.engine.run(until=now)

    assert machine.stats.get("l2_evict_stall") == int(expect_stall)
    assert (cache.lookup(missing, touch=False) is None) == expect_stall
    # whatever the probe left behind is still a lower bound
    assert bank._set_min[set_index] <= min(
        line.expiry for line in bank._set_lines[set_index])


def test_tc_end_to_end_mixed_kernel_completes():
    for consistency in (Consistency.SC, Consistency.RC):
        config = GPUConfig.tiny(protocol=Protocol.TC,
                                consistency=consistency)
        kernel = Kernel("mix", [
            [load(0), store(1), fence(), load(1), fence()],
            [load(1), store(0), fence(), load(0), fence()],
        ])
        stats = GPU(config).run(kernel)
        assert stats.cycles > 0


def test_tc_message_sizes_reflect_32bit_times():
    config = GPUConfig.tiny()
    rd = TCRd(0, 0)
    fill = TCFill(0, 0, version=1, expiry=50)
    ack = TCWrAck(0, 0, gwct=99)
    wr = TCWr(0, 0, version=1)
    assert rd.size(config) == config.noc_header_bytes
    assert fill.size(config) == (config.noc_header_bytes
                                 + config.tc_timestamp_bytes
                                 + config.line_size)
    assert ack.size(config) == (config.noc_header_bytes
                                + config.tc_timestamp_bytes)
    assert wr.size(config) == config.noc_header_bytes + config.line_size
