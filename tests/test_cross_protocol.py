"""Cross-protocol equivalence on race-free kernels.

When a kernel has no data races (every line is written by at most one
warp, and readers are ordered by fences or don't overlap writers), the
final memory state is uniquely determined — so every coherent
protocol, and even the non-coherent L1 for the private-data cases,
must produce identical final versions.  Timing may differ wildly;
values may not.
"""

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.trace import OP_STORE, Kernel, compute, fence, load, store
from repro.workloads import INDEPENDENT_NAMES, build_workload

ALL = [Protocol.GTSC, Protocol.TC, Protocol.DISABLED,
       Protocol.NONCOHERENT]
COHERENT = [Protocol.GTSC, Protocol.TC, Protocol.DISABLED]


def final_state(protocol, consistency, kernel, lines):
    config = GPUConfig.tiny(protocol=protocol, consistency=consistency)
    gpu = GPU(config)
    gpu.run(kernel)
    return [gpu.machine.versions.latest(addr) for addr in range(lines)]


def private_kernel():
    """Each warp owns a disjoint line range: zero sharing."""
    traces = []
    for w in range(4):
        base = w * 4
        trace = []
        for step in range(6):
            trace.append(load(base + step % 4))
            trace.append(compute(2))
            trace.append(store(base + step % 4))
        trace.append(fence())
        traces.append(trace)
    return Kernel("private", traces), 16


def single_writer_kernel():
    """One producer, three consumers: shared but race-free writes."""
    producer = []
    for step in range(8):
        producer.append(store(step))
        producer.append(fence())
    consumers = [[load(i % 8), compute(3), load((i + 2) % 8), fence()]
                 for i in range(3)]
    return Kernel("spsc", [producer] + consumers), 8


@pytest.mark.parametrize("consistency", [Consistency.SC, Consistency.RC])
def test_private_kernel_final_state_identical_everywhere(consistency):
    kernel, lines = private_kernel()
    states = [final_state(p, consistency, kernel, lines) for p in ALL]
    assert all(state == states[0] for state in states[1:])
    # 6 stores round-robin over each warp's 4 lines: 2,2,1,1 versions
    assert states[0] == [2, 2, 1, 1] * 4


@pytest.mark.parametrize("consistency", [Consistency.SC, Consistency.RC])
def test_single_writer_final_state_identical_for_coherent(consistency):
    kernel, lines = single_writer_kernel()
    states = [final_state(p, consistency, kernel, lines)
              for p in COHERENT]
    assert all(state == states[0] for state in states[1:])
    assert states[0] == [1] * 8


@pytest.mark.parametrize("name", INDEPENDENT_NAMES)
def test_independent_workloads_same_final_state_across_protocols(name):
    kernel = build_workload(name, scale=0.1, seed=3)
    lines = sorted(kernel.memory_footprint())
    states = []
    for protocol in ALL:
        config = GPUConfig.tiny(protocol=protocol,
                                consistency=Consistency.RC)
        gpu = GPU(config)
        gpu.run(kernel)
        states.append([gpu.machine.versions.latest(a) for a in lines])
    assert all(state == states[0] for state in states[1:])


def test_store_counts_conserved_across_protocols():
    """Every protocol performs exactly the stores the trace contains."""
    kernel, lines = private_kernel()
    expected = sum(t.ops.count(OP_STORE) for t in kernel.traces)
    for protocol in ALL:
        config = GPUConfig.tiny(protocol=protocol)
        gpu = GPU(config)
        gpu.run(kernel)
        assert len(gpu.machine.log.stores) == expected
