"""Extension microbenchmark — atomic contention across protocols.

All warps hammer a handful of shared counter lines with atomic RMWs
(the hot-spot pattern of histogram/reduction kernels).  Shape target:
G-TSC's stall-free write path wins over TC-Strong (whose atomics park
behind leases) and stays close to TC-Weak, and every protocol
preserves atomicity (the count of minted versions equals the number
of increments).
"""

import random

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.trace import Kernel, atomic, compute, fence, load

from conftest import BENCH_SCALE


def contention_kernel(warps: int, rounds: int, counters: int = 4,
                      seed: int = 7) -> Kernel:
    rng = random.Random(seed)
    traces = []
    for _ in range(warps):
        trace = []
        for _ in range(rounds):
            trace.append(compute(rng.randrange(1, 6)))
            # inspect the counter before updating it (the histogram
            # pattern) — these reads are what TC-Strong's atomics
            # must wait out
            trace.append(load(rng.randrange(counters)))
            trace.append(compute(2))
            trace.append(atomic(rng.randrange(counters)))
        trace.append(fence())
        traces.append(trace)
    return Kernel("atomic-contention", traces)


@pytest.mark.parametrize("consistency", [Consistency.SC, Consistency.RC])
def test_atomic_contention(benchmark, emit, consistency):
    warps = max(8, int(32 * BENCH_SCALE))
    rounds = max(6, int(16 * BENCH_SCALE))
    kernel = contention_kernel(warps, rounds)

    def sweep():
        rows = []
        for protocol in (Protocol.GTSC, Protocol.TC, Protocol.DISABLED):
            config = GPUConfig.small(protocol=protocol,
                                     consistency=consistency)
            gpu = GPU(config)
            stats = gpu.run(kernel)
            rows.append((protocol.value, stats,
                         gpu.machine.versions))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\natomic contention, {consistency.value}: "
          f"{warps} warps x {rounds} atomics")
    cycles = {}
    for name, stats, versions in rows:
        cycles[name] = stats.cycles
        total = sum(versions.latest(c) for c in range(4))
        assert total == warps * rounds  # no lost updates, ever
        print(f"  {name:10s} {stats.cycles:8d} cycles, "
              f"{stats.counter('l2_write_stall_cycles'):7d} "
              f"write-stall cycles")
    if consistency is Consistency.SC:
        # TC-Strong's atomics park behind leases; G-TSC's never stall
        assert cycles["gtsc"] < cycles["tc"]
