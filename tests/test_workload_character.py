"""Workload characterization: each benchmark must actually *have* the
personality the paper's analysis attributes to it (see
docs/WORKLOADS.md).  These tests pin the generators against silent
drift — a refactor that turns CC compute-bound or CCP memory-bound
would quietly invalidate every figure.
"""

import pytest

from repro.trace import OP_COMPUTE, OP_FENCE, OP_LOAD, OP_STORE
from repro.workloads import ALL_NAMES, build_workload


def profile(name, scale=0.4):
    kernel = build_workload(name, scale=scale, seed=2018)
    counts = {OP_LOAD: 0, OP_STORE: 0, OP_FENCE: 0, OP_COMPUTE: 0}
    compute_cycles = 0
    accesses = 0
    for trace in kernel.traces:
        for op, arg in trace:
            counts[op] += 1
            if op == OP_COMPUTE:
                compute_cycles += arg
            elif op != OP_FENCE:
                accesses += len(arg)
    mem_instrs = counts[OP_LOAD] + counts[OP_STORE]
    return {
        "kernel": kernel,
        "counts": counts,
        "compute_per_access": compute_cycles / max(1, accesses),
        "store_share": counts[OP_STORE] / max(1, mem_instrs),
    }


def test_ccp_is_compute_bound():
    prof = profile("CCP")
    assert prof["compute_per_access"] > 15
    assert prof["store_share"] < 0.3


def test_hs_is_compute_heavy():
    assert profile("HS")["compute_per_access"] > 4


def test_cc_is_memory_intensive():
    prof = profile("CC")
    assert prof["compute_per_access"] < 1.0


def test_bh_is_read_mostly():
    assert profile("BH")["store_share"] < 0.2


def test_cc_writes_every_iteration():
    assert profile("CC")["store_share"] > 0.15


def test_bfs_streams_more_than_it_writes():
    prof = profile("BFS")
    assert prof["store_share"] < 0.15
    # adjacency streaming: large unique footprint
    footprint = len(prof["kernel"].memory_footprint())
    assert footprint > 200


def test_km_has_the_largest_stream():
    km = len(profile("KM")["kernel"].memory_footprint())
    others = [len(profile(n)["kernel"].memory_footprint())
              for n in ("CCP", "HS", "GE")]
    assert km > max(others)


def test_dlp_concentrates_writes_on_hot_lines():
    kernel = profile("DLP")["kernel"]
    writes = {}
    for trace in kernel.traces:
        for op, arg in trace:
            if op == OP_STORE:
                for addr in arg:
                    writes[addr] = writes.get(addr, 0) + 1
    top = sorted(writes.values(), reverse=True)
    # the hottest handful of lines absorb a large share of all writes
    assert sum(top[:8]) > 0.3 * sum(top)


def test_stn_halo_crosses_warp_boundaries():
    kernel = profile("STN")["kernel"]
    reads_by_warp = {}
    writes_by_warp = {}
    for index, trace in enumerate(kernel.traces):
        for op, arg in trace:
            target = reads_by_warp if op == OP_LOAD else \
                writes_by_warp if op == OP_STORE else None
            if target is not None:
                target.setdefault(index, set()).update(arg)
    # every warp reads at least one line that a different warp writes
    for index, reads in reads_by_warp.items():
        foreign = set()
        for other, writes in writes_by_warp.items():
            if other != index:
                foreign |= writes
        assert reads & foreign, f"warp {index} has no halo reads"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_profiles_are_scale_stable(name):
    """Character must not change with scale (only magnitude).

    Scales below ~0.4 quantize the per-warp step counts hard enough
    that periodic events (e.g. CCP's every-6th-step store) can vanish,
    so stability is asserted across the range the harness uses.
    """
    small = profile(name, scale=0.4)
    large = profile(name, scale=1.0)
    assert abs(small["store_share"] - large["store_share"]) < 0.12
