"""Multi-GPU cluster throughput (not a paper figure).

Tracks the cost of the scale-out machine (:mod:`repro.multigpu`): one
representative inter-GPU workload simulated at 2 and 4 GPUs under
G-TSC, so regressions in the inter-GPU link, the shared home
directory, or the route tables of the controllers' one routing path
show up in the CI bench gate.  Each run
also asserts the traffic actually crossed the link — a cluster that
silently stopped exchanging would otherwise look "fast".
"""

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import make_gpu
from repro.workloads import build_workload


@pytest.mark.parametrize("n_gpus", [2, 4], ids=["2gpu", "4gpu"])
def test_multigpu_simulation_throughput(benchmark, n_gpus):
    config = GPUConfig.small(protocol=Protocol.GTSC,
                             consistency=Consistency.RC,
                             n_gpus=n_gpus)
    kernel = build_workload("PCX", scale=0.4, seed=2018)

    def run_once():
        return make_gpu(config, record_accesses=False).run(kernel)

    stats = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert stats.counter("warps_retired") == kernel.num_warps
    assert stats.counter("interlink_bytes") > 0


def test_multigpu_interlink_traffic(benchmark):
    """Interlink serialization in isolation: the all-reduce exchange,
    which is the densest cross-GPU pattern of the three generators."""
    config = GPUConfig.small(protocol=Protocol.GTSC,
                             consistency=Consistency.RC, n_gpus=4)
    kernel = build_workload("ARX", scale=0.4, seed=2018)

    def run_once():
        return make_gpu(config, record_accesses=False).run(kernel)

    stats = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert stats.counter("interlink_messages") > 0
