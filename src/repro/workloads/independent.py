"""The six benchmarks that do *not* require coherence.

These are the right-hand cluster of the paper's figures: regular
data-parallel kernels whose warps touch disjoint or read-only data.
They function correctly with a non-coherent L1, so the paper uses them
to measure the pure *overhead* of running a coherence protocol
(~11 % for G-TSC versus the non-coherent L1 baseline, Section VI-B).

Compute-intensive members (CCP, HS, KM) should show almost no
difference between protocols or consistency models — their stalls hide
behind compute — which is exactly the paper's observation.
"""

from __future__ import annotations

import random

from repro.trace.compiled import Kernel, TraceBuilder, TraceTable
from repro.workloads.patterns import AddressSpace, scaled


def cutcp(rng: random.Random, scale: float) -> Kernel:
    """CCP — cutoff Coulombic potential: compute-bound, tiny footprint.

    Long arithmetic bursts over a small read-only lattice slice per
    warp; writes are rare and private.  The benchmark whose runtime
    the paper reports as essentially protocol-independent.
    """
    space = AddressSpace()
    lattice = space.region(scaled(96, scale))
    out = space.region(scaled(256, scale))
    num_warps = scaled(48, scale)
    steps = scaled(18, scale)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        trace = TraceBuilder(trace_table)
        for s in range(steps):
            trace.load(lattice.line(w + s))
            trace.compute(40)
            if s % 6 == 5:
                trace.store(out.line(w * steps + s))
        traces.append(trace.build())
    return Kernel("CCP", traces)


def gaussian(rng: random.Random, scale: float) -> Kernel:
    """GE — Gaussian elimination.

    Every warp reads the shared pivot row (broadcast read-only reuse —
    ideal for an L1) and streams over its own rows, writing them back
    once per step.
    """
    space = AddressSpace()
    pivot = space.region(scaled(8, scale, minimum=2))
    rows = space.region(scaled(1024, scale))
    out = space.region(scaled(1024, scale))
    num_warps = scaled(48, scale)
    steps = scaled(16, scale)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        trace = TraceBuilder(trace_table)
        for s in range(steps):
            mine = w * steps + s
            # the pivot row is re-read for every column block
            trace.load(pivot.line(s), pivot.line(s + 1))
            trace.load(rows.line(mine), rows.line(mine + 1))
            trace.compute(4)
            trace.load(pivot.line(s))
            trace.load(rows.line(mine + 2))
            trace.compute(6)
            # eliminated row goes to the output copy of the matrix
            trace.store(out.line(mine))
        traces.append(trace.build())
    return Kernel("GE", traces)


def hotspot(rng: random.Random, scale: float) -> Kernel:
    """HS — thermal simulation on private tiles.

    Pure tile-local stencil: each warp reads and rewrites only its own
    tile, with solid compute in between.  No inter-warp sharing at
    all, so every protocol should look identical (paper: HS shows no
    protocol sensitivity).
    """
    space = AddressSpace()
    tile_lines = 8
    num_warps = scaled(48, scale)
    temp_in = space.region(num_warps * tile_lines)    # read-only input
    temp_out = space.region(num_warps * tile_lines)   # private output
    iterations = scaled(12, scale)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        base = w * tile_lines
        trace = TraceBuilder(trace_table)
        for it in range(iterations):
            # ping-pong grids: reads never touch the written copy, so
            # the input tile stays cacheable for the whole kernel
            trace.load(temp_in.line(base), temp_in.line(base + 1))
            trace.load(temp_in.line(base + 2),
                       temp_in.line(base + 3))
            trace.compute(24)
            trace.store(temp_out.line(base + (it % tile_lines)))
        traces.append(trace.build())
    return Kernel("HS", traces)


def kmeans(rng: random.Random, scale: float) -> Kernel:
    """KM — k-means clustering.

    Streams a large point array (read-once, memory-intensive) while
    re-reading a small shared read-only centroid table every step;
    private accumulators are written occasionally.  Long-running and
    bandwidth-hungry, like the paper's KM (largest cycle count in
    Table II).
    """
    space = AddressSpace()
    centroids = space.region(scaled(12, scale, minimum=4))
    points = space.region(scaled(2048, scale))
    sums = space.region(scaled(256, scale))
    num_warps = scaled(48, scale)
    chunk = scaled(36, scale)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        trace = TraceBuilder(trace_table)
        cursor = w * chunk
        for s in range(chunk):
            trace.load(points.line(cursor + s))
            trace.load(centroids.line(s % centroids.lines))
            trace.compute(8)
            if s % 9 == 8:
                trace.store(sums.line(w * 4 + (s % 4)))
        traces.append(trace.build())
    return Kernel("KM", traces)


def backprop(rng: random.Random, scale: float) -> Kernel:
    """BP — neural-network back-propagation.

    Streaming reads of a shared (read-only within the kernel) weight
    matrix plus private activation writes, alternating with moderate
    compute.
    """
    space = AddressSpace()
    weights = space.region(scaled(96, scale))
    activations = space.region(scaled(512, scale))
    num_warps = scaled(48, scale)
    steps = scaled(22, scale)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        trace = TraceBuilder(trace_table)
        for s in range(steps):
            # each weight-row block is reused for three consecutive
            # input elements before the stream moves on
            row = (s // 3) * 2 % weights.lines
            trace.load(weights.line(row), weights.line(row + 1))
            trace.load(weights.line(row + 2))
            trace.compute(5)
            trace.store(activations.line(w * steps + s))
        traces.append(trace.build())
    return Kernel("BP", traces)


def sgm(rng: random.Random, scale: float) -> Kernel:
    """SGM — semi-global (stereo) matching.

    Sliding-window reads with heavy reuse between *consecutive* steps
    of the same warp (good L1 locality, no inter-warp writes) and a
    private cost-volume write per step.
    """
    space = AddressSpace()
    image = space.region(scaled(768, scale))
    costs = space.region(scaled(768, scale))
    num_warps = scaled(48, scale)
    steps = scaled(26, scale)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        trace = TraceBuilder(trace_table)
        row = w * 11
        for s in range(steps):
            # window slides by one line per step: 3 reads, 2 reused
            trace.load(image.line(row + s), image.line(row + s + 1))
            trace.load(image.line(row + s + 2))
            trace.compute(7)
            trace.store(costs.line(w * steps + s))
        traces.append(trace.build())
    return Kernel("SGM", traces)
