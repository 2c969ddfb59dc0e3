"""Inter-GPU sharing workloads for the multi-GPU machine.

The paper's twelve benchmarks stress coherence *within* one GPU; the
HALCONE-style cluster (:mod:`repro.multigpu`) needs traffic that
crosses the inter-GPU link.  The cluster places consecutive CTAs on
consecutive GPUs (``gpu = cta_index % n_gpus``), so a generator makes
sharing *cross-GPU* simply by making **adjacent warps** share data:
at ``n_gpus >= 2`` every neighbour pair straddles a link, while at
``n_gpus = 1`` the same trace degenerates to ordinary intra-GPU
sharing — one kernel serves the whole 1/2/4/8-GPU comparison.

Three patterns, mirroring the multi-GPU literature's staples:

* **PCX** — producer/consumer pipeline: each warp fills a chunk,
  fences, publishes a flag, then consumes its neighbour's chunk.
  Write-then-remote-read is the flow where G-TSC's data-less renewals
  and the shared mem_ts home directory earn their keep.
* **ARX** — recursive-doubling all-reduce: log2(N) exchange rounds,
  each reading a partner's partial and rewriting your own.  Dense
  all-to-all sharing; interlink bandwidth bound at high GPU counts.
* **NZP** — NUMA-skewed zipf: power-law reads over one shared region
  whose hot head, by the cluster's interleaved home mapping, homes on
  the low-numbered GPUs — the skewed-home case where remote leases
  either amortise (logical time) or thrash (physical time).
"""

from __future__ import annotations

import random

from repro.trace.compiled import (
    CompiledTrace,
    Kernel,
    TraceBuilder,
    TraceTable,
)
from repro.workloads.patterns import AddressSpace, scaled


def _finish(trace: TraceBuilder) -> CompiledTrace:
    trace.fence()
    return trace.build()


def producer_consumer(rng: random.Random, scale: float) -> Kernel:
    """PCX — neighbour producer/consumer pipeline across GPUs."""
    space = AddressSpace()
    num_warps = scaled(32, scale, minimum=4)
    chunk = scaled(8, scale, minimum=2)
    rounds = scaled(10, scale, minimum=2)
    slots = space.region(num_warps * chunk)
    flags = space.region(num_warps)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        neighbour = (w + 1) % num_warps      # next CTA = next GPU
        trace = TraceBuilder(trace_table)
        for _ in range(rounds):
            # produce this warp's chunk, then publish the flag
            for k in range(chunk):
                trace.store(slots.line(w * chunk + k))
                trace.compute(rng.randrange(1, 5))
            trace.fence()
            trace.store(flags.line(w))
            trace.fence()
            # consume the neighbour's chunk (flag first, as a reader)
            trace.load(flags.line(neighbour))
            for k in range(chunk):
                trace.load(slots.line(neighbour * chunk + k))
                trace.compute(2)
        traces.append(_finish(trace))
    return Kernel("PCX", traces)


def all_reduce(rng: random.Random, scale: float) -> Kernel:
    """ARX — recursive-doubling all-reduce exchange."""
    space = AddressSpace()
    num_warps = scaled(32, scale, minimum=4)
    partials = space.region(num_warps)
    steps = max(1, (num_warps - 1).bit_length())  # ceil(log2(N))
    repeats = scaled(6, scale, minimum=2)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        trace = TraceBuilder(trace_table)
        for _ in range(repeats):
            # publish this warp's partial
            trace.store(partials.line(w))
            trace.fence()
            # combine with partners at doubling distances
            for r in range(steps):
                partner = (w + (1 << r)) % num_warps
                trace.load(partials.line(partner))
                trace.compute(rng.randrange(2, 7))
                trace.store(partials.line(w))
                trace.fence()
            # read the converged result from a far neighbour
            trace.load(partials.line((w + num_warps // 2)
                                     % num_warps))
        traces.append(_finish(trace))
    return Kernel("ARX", traces)


def numa_zipf(rng: random.Random, scale: float) -> Kernel:
    """NZP — NUMA-skewed zipf reads over one shared region.

    The power-law head (the hottest lines) sits at the bottom of the
    region, so under the cluster's interleaved home mapping most hot
    lines home on GPU 0: every other GPU serves its hot reads across
    the interlink.  A thin write stream keeps the leases honest.
    """
    space = AddressSpace()
    shared = space.region(scaled(256, scale, minimum=32))
    num_warps = scaled(32, scale, minimum=4)
    steps = scaled(30, scale, minimum=5)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        trace = TraceBuilder(trace_table)
        for s in range(steps):
            trace.load(shared.powerlaw_line(rng))
            trace.load(shared.powerlaw_line(rng))
            trace.compute(rng.randrange(1, 4))
            # a structural write every 6th step (scale-stable mix)
            if s % 6 == 5:
                trace.store(shared.powerlaw_line(rng))
                trace.fence()
        traces.append(_finish(trace))
    return Kernel("NZP", traces)
