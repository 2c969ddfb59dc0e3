"""The paper's twelve benchmarks as synthetic trace generators.

Two groups, exactly as in Section VI-A:

* **coherent** (BH, CC, DLP, VPR, STN, BFS) — require coherence for
  correctness; the left cluster of every figure.
* **independent** (CCP, GE, HS, KM, BP, SGM) — function without
  coherence; used to measure protocol overhead.

Use :func:`build_workload` to construct a kernel::

    kernel = build_workload("BFS", scale=0.5, seed=7)

``scale`` shrinks or grows every dimension of the workload (warps,
iterations, footprints); ``seed`` makes the trace deterministic.

The generators write each warp's packed trace through
:class:`repro.trace.compiled.TraceBuilder`, so the kernel comes back
as the :class:`repro.trace.compiled.CompiledKernel` the simulator
executes — no per-instruction objects, no compile pass at launch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.trace.compiled import CompiledKernel
from repro.workloads import coherent, independent, multigpu


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry for one benchmark.

    ``multigpu`` marks the inter-GPU sharing generators
    (:mod:`repro.workloads.multigpu`): they are full registry citizens
    (buildable, storable, servable) but stay out of ``ALL_NAMES`` /
    ``COHERENT_NAMES`` so the paper's twelve-benchmark figures are
    byte-identical to the pre-multigpu harness.
    """

    name: str
    requires_coherence: bool
    description: str
    builder: Callable[[random.Random, float], CompiledKernel]
    multigpu: bool = False


_SPECS: List[WorkloadSpec] = [
    WorkloadSpec("BH", True, "Barnes-Hut n-body tree traversal",
                 coherent.barnes_hut),
    WorkloadSpec("CC", True, "label-propagation connected components",
                 coherent.connected_components),
    WorkloadSpec("DLP", True, "task queues with work stealing",
                 coherent.dynamic_load_balancing),
    WorkloadSpec("VPR", True, "simulated-annealing placement",
                 coherent.vpr),
    WorkloadSpec("STN", True, "iterative stencil with halo exchange",
                 coherent.stencil),
    WorkloadSpec("BFS", True, "frontier breadth-first search",
                 coherent.bfs),
    WorkloadSpec("CCP", False, "cutoff Coulombic potential (compute-bound)",
                 independent.cutcp),
    WorkloadSpec("GE", False, "Gaussian elimination",
                 independent.gaussian),
    WorkloadSpec("HS", False, "hotspot thermal stencil (private tiles)",
                 independent.hotspot),
    WorkloadSpec("KM", False, "k-means clustering (memory-intensive)",
                 independent.kmeans),
    WorkloadSpec("BP", False, "back-propagation training",
                 independent.backprop),
    WorkloadSpec("SGM", False, "semi-global stereo matching",
                 independent.sgm),
    # inter-GPU sharing generators (repro.multigpu comparison)
    WorkloadSpec("PCX", True, "cross-GPU producer/consumer pipeline",
                 multigpu.producer_consumer, multigpu=True),
    WorkloadSpec("ARX", True, "recursive-doubling all-reduce exchange",
                 multigpu.all_reduce, multigpu=True),
    WorkloadSpec("NZP", True, "NUMA-skewed zipf sharing",
                 multigpu.numa_zipf, multigpu=True),
]

WORKLOADS: Dict[str, WorkloadSpec] = {spec.name: spec for spec in _SPECS}

COHERENT_NAMES: List[str] = [s.name for s in _SPECS
                             if s.requires_coherence and not s.multigpu]
INDEPENDENT_NAMES: List[str] = [s.name for s in _SPECS
                                if not s.requires_coherence
                                and not s.multigpu]
#: the paper's twelve single-GPU benchmarks (figure vocabulary)
ALL_NAMES: List[str] = [s.name for s in _SPECS if not s.multigpu]
#: the inter-GPU sharing generators (multi-GPU comparison vocabulary)
MULTIGPU_NAMES: List[str] = [s.name for s in _SPECS if s.multigpu]


def build_workload(name: str, scale: float = 1.0,
                   seed: int = 2018) -> CompiledKernel:
    """Build benchmark ``name`` at the given scale, deterministically.

    Returns the validated :class:`CompiledKernel` the simulator
    executes.
    """
    try:
        spec = WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
    if scale <= 0:
        raise ValueError("scale must be positive")
    kernel = spec.builder(random.Random(seed), scale)
    kernel.validate()
    return kernel
