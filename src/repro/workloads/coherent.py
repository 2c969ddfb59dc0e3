"""The six benchmarks that *require* coherence (paper Section VI-A).

Each generator is a synthetic stand-in for the CUDA benchmark of the
same name, reproducing the access-pattern features that drive the
paper's results: inter-SM read-write sharing, fence-delimited
iterations, read phases with temporal reuse (where logical leases beat
physical ones — data that nobody wrote stays valid forever in logical
time, while TC's physical leases expire and force full refills), and
the read/write mixes the paper's discussion attributes to each
program.  See DESIGN.md for the substitution rationale.

All traces end with a fence so that every warp's stores are globally
performed before the kernel retires.
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


def barnes_hut(rng: random.Random, scale: float) -> Kernel:
    """BH — Barnes-Hut n-body tree traversal.

    Warps repeatedly walk a shared octree.  The upper levels (a hot
    set of ~16 lines) are re-read on every traversal and written very
    rarely (centre-of-mass refreshes); leaves follow a power law.
    Read-mostly with long reuse distances: the pattern where G-TSC
    keeps hitting in L1 while TC's physical leases expire.
    """
    space = AddressSpace()
    top = space.region(16)                       # root + upper levels
    tree = space.region(scaled(192, scale))      # lower levels
    bodies = space.region(scaled(512, scale))
    num_warps = scaled(48, scale)
    steps = scaled(24, scale)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        trace = TraceBuilder(trace_table)
        for s in range(steps):
            # walk from the root: the hot upper levels, twice per walk
            trace.load(top.line(0), top.line(1 + (s % 3)))
            trace.load(top.line(4 + rng.randrange(4)))
            trace.compute(3)
            trace.load(top.line(8 + rng.randrange(8)))
            for _ in range(3):
                trace.load(tree.powerlaw_line(rng))
                trace.compute(4)
            # body updates are batched: one private store per 4 walks
            if s % 4 == 3:
                trace.store(bodies.line(w * 8 + rng.randrange(8)))
            # rare shared tree refresh
            if rng.random() < 0.06:
                trace.store(tree.powerlaw_line(rng))
                trace.fence()
            trace.compute(5)
        traces.append(_finish(trace))
    return Kernel("BH", traces)


def connected_components(rng: random.Random, scale: float) -> Kernel:
    """CC — label-propagation connected components.

    Memory-intensive label exchange: every iteration re-reads a fixed
    neighbour set (written each round by the owning warps) plus random
    probes, then rewrites this warp's labels, fencing each round.  The
    paper singles CC out as the benchmark where G-TSC-SC beats
    G-TSC-RC because RC's extra concurrent requests congest the NoC —
    so this generator issues many memory operations with almost no
    compute between them.
    """
    space = AddressSpace()
    labels = space.region(scaled(192, scale))
    num_warps = scaled(48, scale)
    iterations = scaled(12, scale)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        own = [labels.line(w * 4 + k) for k in range(4)]
        neighbours = [labels.random_line(rng) for _ in range(8)]
        trace = TraceBuilder(trace_table)
        for _ in range(iterations):
            for n in neighbours:
                trace.load(n)
            trace.load(labels.powerlaw_line(rng),
                       labels.random_line(rng))
            trace.compute(1)
            # propagate: rewrite this warp's labels
            for line in own:
                if rng.random() < 0.7:
                    trace.store(line)
            trace.fence()
        traces.append(_finish(trace))
    return Kernel("CC", traces)


def dynamic_load_balancing(rng: random.Random, scale: float) -> Kernel:
    """DLP — task queues with work stealing.

    A small set of queue-head lines is hammered with reads and writes
    by every warp (high write contention on hot lines); a shared
    read-mostly task table is consulted repeatedly; claimed task
    payloads stream privately.  The hot-line writes are where TC's
    lease-expiry write stalls hurt most.
    """
    space = AddressSpace()
    heads = space.region(scaled(16, scale, minimum=4))
    table = space.region(32)                   # task metadata, read-mostly
    tasks = space.region(scaled(768, scale))
    num_warps = scaled(48, scale)
    rounds = scaled(20, scale)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        trace = TraceBuilder(trace_table)
        for r in range(rounds):
            head = heads.random_line(rng)
            trace.load(head)             # inspect a queue head
            trace.load(table.line(rng.randrange(8)))
            trace.load(table.line(8 + rng.randrange(24)))
            trace.compute(2)
            if rng.random() < 0.4:
                trace.store(head)        # pop / steal
                trace.fence()
            # process the claimed task (private streaming)
            base = (w * rounds + r) * 2
            trace.load(tasks.line(base), tasks.line(base + 1))
            trace.compute(10)
            if r % 3 == 2:
                trace.store(tasks.line(base))
        traces.append(_finish(trace))
    return Kernel("DLP", traces)


def vpr(rng: random.Random, scale: float) -> Kernel:
    """VPR — simulated-annealing placement (Versatile Place & Route).

    Each warp proposes swaps mostly inside its own neighbourhood of
    the shared placement grid (re-reading the same cells across moves)
    with occasional long-range probes; accepted swaps write both cells
    back.  Shared read-write traffic with medium compute.
    """
    space = AddressSpace()
    grid = space.region(scaled(384, scale))
    num_warps = scaled(48, scale)
    moves = scaled(24, scale)
    hood = 16                                 # neighbourhood size (lines)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        base = (w * hood) % max(1, grid.lines - hood)
        trace = TraceBuilder(trace_table)
        for _ in range(moves):
            a = grid.line(base + rng.randrange(hood))
            b = grid.line(base + rng.randrange(hood))
            trace.load(a, b)
            trace.load(grid.line(base + rng.randrange(hood)))
            if rng.random() < 0.2:             # long-range probe
                trace.load(grid.random_line(rng))
            trace.compute(8)
            if rng.random() < 0.25:            # accept the swap
                trace.store(a)
                trace.store(b)
                trace.fence()
            trace.compute(4)
        traces.append(_finish(trace))
    return Kernel("VPR", traces)


def stencil(rng: random.Random, scale: float) -> Kernel:
    """STN — iterative stencil with halo exchange.

    Each warp owns a tile; every iteration re-reads its interior,
    reads the halo lines owned (and rewritten) by neighbouring warps,
    then writes its boundary and fences.  Producer-consumer sharing
    between *adjacent* SMs every iteration — coherence misses on the
    halo are inevitable; the interior reuse is where the protocols
    differ.
    """
    space = AddressSpace()
    tile_lines = 6
    num_warps = scaled(48, scale)
    field = space.region(num_warps * tile_lines)
    iterations = scaled(10, scale)

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        mine = w * tile_lines
        left = ((w - 1) % num_warps) * tile_lines
        right = ((w + 1) % num_warps) * tile_lines
        trace = TraceBuilder(trace_table)
        for it in range(iterations):
            # interior reads (reused every iteration, never written by
            # other warps)
            trace.load(field.line(mine + 1), field.line(mine + 2))
            trace.load(field.line(mine + 3), field.line(mine + 4))
            trace.compute(4)
            trace.load(field.line(mine + 1), field.line(mine + 3))
            # halo read: neighbours' boundary lines (fresh each round)
            trace.load(field.line(left + tile_lines - 1))
            trace.load(field.line(right))
            trace.compute(6)
            # write own boundary (what the neighbours read)
            trace.store(field.line(mine))
            trace.store(field.line(mine + tile_lines - 1))
            if it % 2 == 1:                    # interior update, batched
                trace.store(field.line(mine + 2))
            trace.fence()
        traces.append(_finish(trace))
    return Kernel("STN", traces)


def bfs(rng: random.Random, scale: float) -> Kernel:
    """BFS — frontier-based breadth-first search.

    Streams adjacency lists (read-once), probes a shared ``visited``
    bitmap with power-law locality (hub vertices are re-probed by
    everyone), and sparsely writes newly visited vertices; a fence
    ends each level.  Half the warps discover nothing (read-only) —
    their logical clocks barely advance, so under G-TSC their hub
    probes keep hitting while TC refetches on every physical expiry.
    """
    space = AddressSpace()
    adjacency = space.region(scaled(1024, scale))
    visited = space.region(scaled(128, scale))
    num_warps = scaled(48, scale)
    levels = scaled(8, scale)
    edges_per_level = 5

    traces = []
    trace_table = TraceTable()
    for w in range(num_warps):
        writer = w % 2 == 0
        trace = TraceBuilder(trace_table)
        cursor = w * 17
        for _level in range(levels):
            for _ in range(edges_per_level):
                # stream this warp's slice of the adjacency lists
                trace.load(adjacency.line(cursor),
                           adjacency.line(cursor + 1))
                cursor += 2
                # probe the shared visited map (hot, power-law)
                trace.load(visited.powerlaw_line(rng))
                trace.compute(2)
                if writer and rng.random() < 0.2:
                    # newly discovered vertices are cold (hubs were
                    # visited in the first levels), so the writes land
                    # on uniformly random lines, not the hot probes
                    trace.store(visited.random_line(rng))
            trace.fence()                   # level barrier
        traces.append(_finish(trace))
    return Kernel("BFS", traces)
