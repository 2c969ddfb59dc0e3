"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import make_gpu
from repro.trace import Kernel, atomic, compute, fence, load, store
from repro.validate.checker import (
    check_atomicity,
    check_gtsc_log,
    check_single_writer_logical,
    check_warp_monotonicity,
)


@pytest.fixture
def tiny_config() -> GPUConfig:
    return GPUConfig.tiny()

@pytest.fixture
def small_config() -> GPUConfig:
    return GPUConfig.small()


def run_gpu(config: GPUConfig, kernel: Kernel, max_events: int = 2_000_000):
    """Run a kernel and return (GPU, RunStats)."""
    gpu = make_gpu(config)
    stats = gpu.run(kernel, max_events=max_events)
    return gpu, stats


def run_and_check(config: GPUConfig, kernel: Kernel,
                  max_events: int = 2_000_000):
    """Run a G-TSC kernel and verify every coherence invariant.

    Returns (GPU, RunStats).  Applies the timestamp-order value check
    always, the per-warp monotonicity check only under SC (it is an
    SC-only invariant), and the logical single-writer check always.
    """
    assert config.protocol is Protocol.GTSC
    gpu, stats = run_gpu(config, kernel, max_events)
    log, versions = gpu.machine.log, gpu.machine.versions
    assert check_gtsc_log(log, versions) == len(log.loads)
    check_single_writer_logical(log, versions)
    assert check_atomicity(log, versions) == len(log.atomics)
    if config.consistency is Consistency.SC:
        check_warp_monotonicity(log)
    return gpu, stats


def random_trace(rng: random.Random, length: int = 40, lines: int = 8,
                 p_load: float = 0.5, p_store: float = 0.3,
                 p_fence: float = 0.1):
    """A random warp trace over a small shared footprint."""
    trace = []
    for _ in range(length):
        r = rng.random()
        if r < p_load:
            trace.append(load(rng.randrange(lines)))
        elif r < p_load + p_store:
            trace.append(store(rng.randrange(lines)))
        elif r < p_load + p_store + p_fence:
            trace.append(fence())
        else:
            trace.append(compute(rng.randrange(1, 6)))
    trace.append(fence())
    return trace


def random_kernel(seed: int, warps: int = 4, **kwargs) -> Kernel:
    rng = random.Random(seed)
    return Kernel(f"rand-{seed}",
                  [random_trace(rng, **kwargs) for _ in range(warps)])


def racing_atomics() -> Kernel:
    """Loads, stores and atomics racing on six shared lines: no
    generated workload issues atomics, so this kernel is the one that
    fills the pending-atomic tables and the atomic ack paths."""
    rng = random.Random(7)
    traces = []
    for _ in range(8):
        trace = []
        for _ in range(30):
            addr = rng.randrange(6)
            pick = rng.random()
            if pick < 0.4:
                trace.append(load(addr))
            elif pick < 0.7:
                trace.append(store(addr))
            else:
                trace.append(atomic(addr))
        trace.append(fence())
        traces.append(trace)
    return Kernel("racing-atomics", traces)
