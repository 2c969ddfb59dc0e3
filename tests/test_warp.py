"""Unit tests for warp state."""

from repro.gpu.warp import Warp
from repro.trace import compute, fence, load, pack_trace


def test_initial_state():
    warp = Warp(3, pack_trace([load(0)]))
    assert warp.uid == 3
    assert warp.pc == 0
    assert warp.ts == 1          # logical clocks start at 1 (§III-B)
    assert warp.gwct == 0
    assert not warp.done
    assert warp.drained()


def test_pc_indexes_the_packed_rows_until_finished():
    warp = Warp(0, pack_trace([load(0), fence()]))
    assert (warp.ops[warp.pc],
            warp.operands[warp.args[warp.pc]]) == load(0)
    warp.pc = 1
    assert warp.at_fence()
    warp.pc = 2
    assert warp.finished_trace


def test_drained_tracks_all_outstanding_state():
    warp = Warp(0, pack_trace([]))
    assert warp.drained()
    warp.outstanding_loads = 1
    assert not warp.drained()
    warp.outstanding_loads = 0
    warp.outstanding_stores = 2
    assert not warp.drained()
    warp.outstanding_stores = 0
    warp.pending_addrs = [4]
    assert not warp.drained()
    warp.pending_addrs = None
    assert warp.drained()


def test_at_fence_only_on_fence():
    warp = Warp(0, pack_trace([compute(1), fence()]))
    assert not warp.at_fence()
    warp.pc = 1
    assert warp.at_fence()


def test_empty_trace_is_finished():
    warp = Warp(0, pack_trace([]))
    assert warp.finished_trace
