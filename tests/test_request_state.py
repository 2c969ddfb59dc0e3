"""Per-line request state lives only while its request is in flight.

Every controller keeps per-line tables of the requests it has
outstanding: stores and atomics awaiting acks, loads awaiting fills,
loads the update-visibility rule holds back, requests queued behind a
blocked line.  Each line's entry must go when the line's last request
completes, so a finished run holds none, however many lines it
touched.  Likewise the write-order records the checkers read are kept
only by runs that record accesses.

The machine itself lives only while someone holds its GPU: once a
finished GPU is closed and dropped, reference counting alone frees
every part of it, with the cyclic collector switched off.
"""

import gc
import weakref

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import make_gpu
from repro.gpu.machine import Machine
from repro.harness.parallel import _simulate_point
from repro.harness.runner import ExperimentRunner, point_of
from repro.obs import Observability
from repro.validate.checker import check_gtsc_log
from repro.workloads import build_workload

from tests.conftest import racing_atomics

SCALE = 0.3

#: the per-line request tables of each protocol's L1 and L2 controllers
#: (every controller also has an MSHR table, checked separately)
REQUEST_TABLES = {
    Protocol.GTSC: (("_pending_writes", "_locked_waiters"), ()),
    Protocol.TC: (("_pending_writes",), ("_blocked",)),
    Protocol.MESI: (("_pending_writes", "_awaiting_ownership",
                     "_loads_after_getm", "_m_requested"),
                    ("_stray_acks",)),
    Protocol.DISABLED: (("_load_waiters", "_pending_writes"), ()),
    Protocol.NONCOHERENT: (("_pending_writes",), ()),
}


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


# ---------------------------------------------------------------------------
# machine lifetime
# ---------------------------------------------------------------------------

#: the matrix above, plus 2-GPU clusters of the protocols whose cluster
#: variants carry state of their own
LIFETIME_POINTS = [point + (1,) for point in POINTS] + [
    (protocol, consistency, workload, 2)
    for protocol in (Protocol.GTSC, Protocol.TC, Protocol.MESI)
    for consistency in Consistency
    for workload in ("BFS", "KM", "atomics")]


@pytest.fixture
def collector_off():
    """Only reference counting frees objects while the test runs."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def assert_freed_on_close(gpu, run):
    """Run ``run(gpu)``, close and drop the GPU, and check that the
    GPU, each machine and one L2 array are gone."""
    run(gpu)
    refs = {f"machine {index}": weakref.ref(machine)
            for index, machine in enumerate(gpu.machines)}
    refs["gpu"] = weakref.ref(gpu)
    refs["l2 array"] = weakref.ref(gpu.machine.l2_banks[0].cache)
    gpu.close()
    del gpu
    assert [name for name, ref in refs.items() if ref() is not None] == []


@pytest.mark.parametrize(
    "protocol,consistency,workload,n_gpus", LIFETIME_POINTS,
    ids=[f"{p.name}-{c.name}-{w}-x{n}" for p, c, w, n in LIFETIME_POINTS])
def test_closed_gpu_leaves_nothing_for_the_collector(
        collector_off, protocol, consistency, workload, n_gpus):
    config = GPUConfig.small(protocol=protocol, consistency=consistency,
                             n_gpus=n_gpus)
    kernel = kernel_for(workload)
    assert_freed_on_close(make_gpu(config, record_accesses=False),
                          lambda gpu: gpu.run(kernel))


@pytest.mark.parametrize("n_gpus", [1, 2])
def test_closed_gpu_with_observability_leaves_nothing(collector_off,
                                                      n_gpus):
    config = GPUConfig.small(protocol=Protocol.GTSC, n_gpus=n_gpus)
    kernel = kernel_for("BFS")
    assert_freed_on_close(make_gpu(config, obs=Observability.full()),
                          lambda gpu: gpu.run(kernel))


def test_kernel_sequence_delivers_its_last_writebacks(collector_off):
    """MESI's last kernel boundary flushes dirty lines as PutM
    writebacks; the sequence delivers them before it returns, so none
    is left queued on the closed machine."""
    config = GPUConfig.small(protocol=Protocol.MESI)
    kernels = [kernel_for("BFS"), kernel_for("KM")]

    def run(gpu):
        gpu.run_sequence(kernels)
        assert gpu.machine.engine.pending() == 0

    assert_freed_on_close(make_gpu(config), run)


def test_closed_gpu_cannot_run():
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    kernel = kernel_for("atomics")
    with make_gpu(config) as gpu:
        gpu.run(kernel)
    gpu.close()        # closing twice is harmless
    with pytest.raises(RuntimeError, match="closed"):
        gpu.run(kernel)


def test_batch_simulations_leave_no_machine_behind(collector_off):
    """The runner and the parallel runner's worker entry (which serve
    also runs) free each machine as soon as its RunStats exist."""
    gc.collect()
    held = [obj for obj in gc.get_objects() if isinstance(obj, Machine)]
    runner = ExperimentRunner(preset="tiny", scale=SCALE)
    points = [point_of("BFS", protocol, Consistency.RC)
              for protocol in Protocol]
    points.append(point_of("BFS", Protocol.GTSC, Consistency.SC,
                           n_gpus=2))
    for workload, protocol, consistency, overrides in points:
        runner.run(workload, protocol, consistency, **dict(overrides))
        _simulate_point("tiny", SCALE, 2018, (),
                        (workload, protocol, consistency, overrides))
    assert runner.simulations_run == len(points)
    left = [obj for obj in gc.get_objects() if isinstance(obj, Machine)
            and not any(obj is machine for machine in held)]
    assert left == []
