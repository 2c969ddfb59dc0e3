#!/usr/bin/env python3
"""Multi-kernel execution: an iterative graph algorithm.

Real irregular GPU applications — the ones the paper's introduction
motivates — run the same kernel repeatedly until convergence, with the
host checking a flag between launches.  This example builds a
label-propagation solver as a *sequence* of kernels on one GPU and
shows the paper's kernel-boundary semantics in action (Section V-D):
the L1s flush and logical timestamps reset at every boundary, while
the L2 keeps the data the next iteration consumes.

Run:  python examples/iterative_solver.py [ITERATIONS]
"""

import sys

from repro import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.trace import Kernel, compute, fence, load, store
from repro.workloads.patterns import AddressSpace


def propagation_kernel(iteration: int, num_warps: int,
                       labels_base: int, labels_lines: int) -> Kernel:
    """One relaxation sweep: read neighbour labels, write own."""
    traces = []
    for w in range(num_warps):
        own = labels_base + (w * 3) % labels_lines
        trace = []
        for k in range(6):
            neighbour = labels_base + (w * 7 + k * 5) % labels_lines
            trace.append(load(neighbour))
            trace.append(compute(2))
        trace.append(store(own))
        trace.append(fence())
        traces.append(trace)
    return Kernel(f"propagate-{iteration}", traces)


def main() -> None:
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    space = AddressSpace()
    labels = space.region(64)

    config = GPUConfig.small(protocol=Protocol.GTSC,
                             consistency=Consistency.RC)
    gpu = GPU(config)
    kernels = [propagation_kernel(i, num_warps=24, labels_base=labels.base,
                                  labels_lines=labels.lines)
               for i in range(iterations)]
    results = gpu.run_sequence(kernels)

    print(f"{iterations} propagation sweeps on {config.describe()}\n")
    print(f"{'kernel':14s} {'cycles':>8s} {'L1 hit':>7s} "
          f"{'renewals':>9s} {'DRAM':>6s}")
    for stats in results:
        name = stats.config_desc.split(" on ")[0]
        print(f"{name:14s} {stats.cycles:8d} {stats.l1_hit_rate:7.2f} "
              f"{stats.counter('l2_renewals'):9d} "
              f"{stats.counter('dram_reads'):6d}")

    domain = gpu.machine.timestamp_domain
    total_dram = sum(r.counter("dram_reads") for r in results)
    first_dram = results[0].counter("dram_reads")
    print(f"\ntimestamp epochs consumed: {domain.epoch} "
          f"(one reset per kernel boundary, Section V-D)")
    print(f"DRAM reads: {first_dram} in sweep 0, "
          f"{total_dram - first_dram} in all later sweeps — the L2 "
          f"keeps the working set across kernels while the L1s flush.")


if __name__ == "__main__":
    main()
