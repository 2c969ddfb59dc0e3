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

Passing ``cache_dir`` backs the build with an on-disk trace cache:
running a paper-scale generator costs more than a JSON read.  Entries
are keyed by ``(name, scale, seed, GENERATOR_VERSION)`` — bump
:data:`GENERATOR_VERSION` whenever any generator's output changes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.trace.compiled import CompiledKernel
from repro.workloads import coherent, independent, multigpu

#: Version stamp of the generator suite.  Participates in every trace
#: cache key, so bumping it invalidates all cached compiled traces —
#: required whenever a generator's emitted instruction stream changes.
GENERATOR_VERSION = 1


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry for one benchmark.

    ``multigpu`` marks the inter-GPU sharing generators
    (:mod:`repro.workloads.multigpu`): they are full registry citizens
    (buildable, cacheable, servable) but stay out of ``ALL_NAMES`` /
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


def trace_key(name: str, scale: float, seed: int) -> str:
    """The sha256 cache key of one generated workload trace."""
    payload = {
        "generator_version": GENERATOR_VERSION,
        "name": name,
        "scale": scale,
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# per-directory trace caches, shared so hit/miss counters accumulate
# across build_workload calls (and so tests can inspect them)
_trace_caches: Dict[str, object] = {}


def _trace_cache(cache_dir: str):
    cache = _trace_caches.get(cache_dir)
    if cache is None:
        # imported lazily: repro.harness pulls in the runner (and thus
        # this module) at package import, so a top-level import of the
        # harness cache here would be circular
        from repro.harness.cache import JsonFileCache

        class TraceCache(JsonFileCache):
            what = "trace-cache"

            def _decode(self, data):
                return CompiledKernel.from_dict(data)

            def _encode(self, kernel):
                return kernel.to_dict()

        cache = _trace_caches[cache_dir] = TraceCache(cache_dir)
    return cache


def build_workload(name: str, scale: float = 1.0, seed: int = 2018,
                   cache_dir: Optional[str] = None) -> CompiledKernel:
    """Build benchmark ``name`` at the given scale, deterministically.

    Returns the validated :class:`CompiledKernel` the simulator
    executes.  With ``cache_dir`` it is read from the on-disk trace
    cache when the same ``(name, scale, seed, GENERATOR_VERSION)`` has
    been built before, and written there otherwise.
    """
    try:
        spec = WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
    if scale <= 0:
        raise ValueError("scale must be positive")
    if cache_dir is None:
        return _generate(spec, scale, seed)
    cache = _trace_cache(cache_dir)
    key = trace_key(name, scale, seed)
    kernel = cache.get(key)
    if kernel is None:
        kernel = _generate(spec, scale, seed)
        cache.put(key, kernel)
    return kernel


def _generate(spec: WorkloadSpec, scale: float,
              seed: int) -> CompiledKernel:
    kernel = spec.builder(random.Random(seed), scale)
    kernel.validate()
    return kernel
