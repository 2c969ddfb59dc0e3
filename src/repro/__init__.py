"""repro — a reproduction of *G-TSC: Timestamp Based Coherence for GPUs*
(Tabbakh, Qian, Annavaram; HPCA 2018).

The package provides a trace-driven GPU memory-hierarchy simulator
with four coherence configurations (G-TSC, Temporal Coherence, the
no-L1 coherent baseline, and a non-coherent L1), two consistency
models (SC and RC), workload generators for the paper's twelve
benchmarks, exact coherence validators, and a harness that regenerates
every table and figure of the paper's evaluation.

Quickstart::

    from repro import GPUConfig, Protocol, Consistency, run_kernel
    from repro.workloads import build_workload

    config = GPUConfig.small(protocol=Protocol.GTSC,
                             consistency=Consistency.RC)
    kernel = build_workload("BFS", scale=0.5, seed=7)
    stats = run_kernel(config, kernel)
    print(stats.summary())
"""

from repro.config import (
    CombiningPolicy,
    Consistency,
    GPUConfig,
    Protocol,
    VisibilityPolicy,
)
from repro.gpu.gpu import GPU, SimulationHang, run_kernel
from repro.stats.collector import RunStats
from repro.trace.compiled import (
    Kernel,
    atomic,
    compute,
    fence,
    load,
    store,
)

__version__ = "1.0.0"

__all__ = [
    "CombiningPolicy",
    "Consistency",
    "GPU",
    "GPUConfig",
    "Kernel",
    "Protocol",
    "RunStats",
    "SimulationHang",
    "VisibilityPolicy",
    "atomic",
    "compute",
    "fence",
    "load",
    "run_kernel",
    "store",
]
