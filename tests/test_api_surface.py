"""Smoke tests for the package's public API surface."""

import pytest

import repro
from repro import (
    Consistency,
    GPUConfig,
    Kernel,
    Protocol,
    atomic,
    compute,
    fence,
    load,
    run_kernel,
    store,
)


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_run_kernel_convenience():
    kernel = Kernel("api", [[load(0), store(0), fence()]])
    stats = run_kernel(GPUConfig.tiny(), kernel)
    assert stats.cycles > 0
    assert stats.counter("warps_retired") == 1


def test_run_kernel_respects_max_events():
    kernel = Kernel("big", [[compute(2)] * 50 for _ in range(4)])
    with pytest.raises(RuntimeError, match="exceeded"):
        run_kernel(GPUConfig.tiny(), kernel, max_events=10)


def test_instruction_constructors_compose_into_kernel():
    kernel = Kernel("mix", [[
        load(0, 1), compute(3), store(2), atomic(3), fence(),
    ]])
    kernel.validate()
    stats = run_kernel(GPUConfig.tiny(), kernel)
    assert stats.counter("mem_instructions") == 3


def test_histogram_accessor_raises_for_unknown():
    kernel = Kernel("h", [[load(0), fence()]])
    stats = run_kernel(GPUConfig.tiny(), kernel)
    with pytest.raises(KeyError):
        stats.histogram("no_such_histogram")
    assert stats.histogram("load_latency").count == 1


def test_quickstart_docstring_snippet_runs():
    """The package docstring's example must stay executable."""
    from repro.workloads import build_workload
    config = GPUConfig.small(protocol=Protocol.GTSC,
                             consistency=Consistency.RC)
    kernel = build_workload("BFS", scale=0.15, seed=7)
    stats = run_kernel(config, kernel)
    assert "BFS" in stats.config_desc
    assert "cycles" in stats.summary()
