#!/usr/bin/env python3
"""CTA-cooperative tree reduction with barriers.

The canonical __syncthreads kernel: each CTA's warps load a slice of
the input, write partial sums to a scratch region, synchronise at a
barrier, and a designated warp combines the partials — repeated in a
tree until one value remains per CTA.  Demonstrates the execution
model extensions: CTA placement (all warps of a CTA share one SM),
barrier semantics, and how the coherence protocol handles the
producer-consumer handoffs the barrier creates.

Run:  python examples/cta_reduction.py
"""

from repro import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.trace import Kernel, barrier, compute, fence, load, store
from repro.validate import check_gtsc_log
from repro.workloads.patterns import AddressSpace


def reduction_kernel(num_ctas: int, warps_per_cta: int,
                     elements_per_warp: int) -> Kernel:
    space = AddressSpace()
    data = space.region(num_ctas * warps_per_cta * elements_per_warp)
    scratch = space.region(num_ctas * warps_per_cta)

    traces = []
    for cta in range(num_ctas):
        for lane in range(warps_per_cta):
            warp_index = cta * warps_per_cta + lane
            trace = []
            # phase 1: stream this warp's slice and accumulate
            base = warp_index * elements_per_warp
            for k in range(elements_per_warp):
                trace.append(load(data.line(base + k)))
                trace.append(compute(2))
            trace.append(store(scratch.line(warp_index)))
            trace.append(barrier())
            # phase 2: tree-combine the partials (half the warps drop
            # out each round)
            stride = 1
            while stride < warps_per_cta:
                if lane % (2 * stride) == 0:
                    other = cta * warps_per_cta + lane + stride
                    trace.append(load(scratch.line(other)))
                    trace.append(load(scratch.line(warp_index)))
                    trace.append(compute(3))
                    trace.append(store(scratch.line(warp_index)))
                trace.append(barrier())
                stride *= 2
            trace.append(fence())
            traces.append(trace)
    return Kernel("cta-reduction", traces, cta_size=warps_per_cta)


def main() -> None:
    config = GPUConfig.small(protocol=Protocol.GTSC,
                             consistency=Consistency.RC)
    kernel = reduction_kernel(num_ctas=8, warps_per_cta=4,
                              elements_per_warp=6)
    print(f"machine: {config.describe()}")
    print(f"kernel:  {kernel.num_ctas} CTAs x 4 warps, "
          f"{kernel.total_instructions} instructions\n")

    gpu = GPU(config)
    stats = gpu.run(kernel)
    print(stats.summary())
    print()
    print(f"barriers executed:  {stats.counter('barriers')}")
    print(f"barrier releases:   {stats.counter('barrier_releases')}")

    checked = check_gtsc_log(gpu.machine.log, gpu.machine.versions)
    print(f"\ncoherence: all {checked} loads (including every "
          f"post-barrier partial-sum read) consistent with timestamp "
          f"order")

    # show that each combining read saw its producer's write
    log = gpu.machine.log
    scratch_reads = [r for r in log.loads
                     if r.version > 0 and not r.l1_hit]
    print(f"cross-warp handoffs observed through the barrier: "
          f"{len(scratch_reads)}")


if __name__ == "__main__":
    main()
