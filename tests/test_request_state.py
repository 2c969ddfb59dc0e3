"""Per-line request state lives only while its request is in flight.

Every controller keeps per-line tables of the requests it has
outstanding: stores and atomics awaiting acks, loads awaiting fills,
loads the update-visibility rule holds back, requests queued behind a
blocked line.  Each line's entry must go when the line's last request
completes, so a finished run holds none, however many lines it
touched.  Likewise the write-order records the checkers read are kept
only by runs that record accesses.
"""

import random

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import make_gpu
from repro.trace import Kernel, atomic, fence, load, store
from repro.validate.checker import check_gtsc_log
from repro.workloads import build_workload

SCALE = 0.3

#: the per-line request tables of each protocol's L1 and L2 controllers
#: (every controller also has an MSHR table, checked separately)
REQUEST_TABLES = {
    Protocol.GTSC: (("_pending_stores", "_pending_atomics",
                     "_locked_waiters", "_pending_writers"), ()),
    Protocol.TC: (("_pending_stores", "_pending_atomics"), ("_blocked",)),
    Protocol.MESI: (("_pending_stores", "_pending_atomics",
                     "_loads_after_getm", "_m_requested"),
                    ("_stray_acks",)),
    Protocol.DISABLED: (("_load_waiters", "_pending_stores",
                         "_pending_atomics"), ()),
    Protocol.NONCOHERENT: (("_pending_stores", "_pending_atomics"), ()),
}


def racing_atomics():
    """Loads, stores and atomics racing on six shared lines: no
    generated workload issues atomics, so this kernel is the one that
    fills the pending-atomic tables."""
    rng = random.Random(7)
    traces = []
    for _ in range(8):
        trace = []
        for _ in range(30):
            addr = rng.randrange(6)
            pick = rng.random()
            if pick < 0.4:
                trace.append(load(addr))
            elif pick < 0.7:
                trace.append(store(addr))
            else:
                trace.append(atomic(addr))
        trace.append(fence())
        traces.append(trace)
    return Kernel("racing-atomics", traces)


def kernel_for(workload):
    if workload == "atomics":
        return racing_atomics()
    return build_workload(workload, scale=SCALE)


def leftover_request_state(gpu, protocol):
    """``{"<unit>.<table>": entries}`` for every non-empty table."""
    l1_tables, l2_tables = REQUEST_TABLES[protocol]
    left = {}
    for machine in gpu.machines:
        units = [(l1, l1_tables) for l1 in machine.l1s]
        units += [(bank, l2_tables) for bank in machine.l2_banks]
        for unit, tables in units:
            for name in tables:
                entries = len(getattr(unit, name))
                if entries:
                    left[f"{unit.track}.{name}"] = entries
            if len(unit.mshr):
                left[f"{unit.track}.mshr"] = len(unit.mshr)
    return left


POINTS = [(protocol, consistency, workload)
          for protocol in Protocol
          for consistency in Consistency
          for workload in ("BFS", "KM", "atomics")]


@pytest.fixture(scope="module", params=POINTS,
                ids=[f"{p.name}-{c.name}-{w}" for p, c, w in POINTS])
def finished_run(request):
    """An unrecorded run of one point, after ``GPU.run`` returned."""
    protocol, consistency, workload = request.param
    config = GPUConfig.small(protocol=protocol, consistency=consistency)
    kernel = kernel_for(workload)
    gpu = make_gpu(config, record_accesses=False)
    gpu.run(kernel)
    return protocol, kernel, gpu


def test_no_request_state_outlives_its_request(finished_run):
    protocol, _kernel, gpu = finished_run
    assert leftover_request_state(gpu, protocol) == {}


def test_unrecorded_run_keeps_no_write_records(finished_run):
    _protocol, kernel, gpu = finished_run
    versions = gpu.machine.versions
    lines = kernel.memory_footprint()
    # the kernel did write, so the store had records to skip
    assert sum(versions.latest(addr) for addr in lines) > 0
    assert all(versions.write_order(addr) == [] for addr in lines)


@pytest.mark.parametrize("workload", ["BFS", "KM", "atomics"])
@pytest.mark.parametrize("consistency", list(Consistency),
                         ids=lambda c: c.name)
def test_recorded_run_keeps_what_the_checkers_read(consistency, workload):
    config = GPUConfig.small(protocol=Protocol.GTSC,
                             consistency=consistency)
    kernel = kernel_for(workload)
    gpu = make_gpu(config)
    stats = gpu.run(kernel)
    assert check_gtsc_log(gpu.machine.log, gpu.machine.versions) > 0
    assert leftover_request_state(gpu, Protocol.GTSC) == {}
    # recording is passive: the same point unrecorded simulates alike
    assert stats == make_gpu(config, record_accesses=False).run(kernel)
