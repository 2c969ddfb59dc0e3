"""Randomised coherence stress: hypothesis-generated kernels run on the
real machine and every recorded load is checked against timestamp
order.  This is the highest-value test in the suite — each example
discharges hundreds of proof obligations over the full protocol stack
(L1 FSM, MSHR combining, NoC reordering pressure, L2 FSM, evictions,
DRAM refills).
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    CombiningPolicy,
    Consistency,
    GPUConfig,
    Protocol,
    VisibilityPolicy,
)
from repro.trace import Kernel, atomic, compute, fence, load, store

from tests.conftest import run_and_check


def trace_strategy(lines: int, max_len: int):
    instr = st.one_of(
        st.integers(0, lines - 1).map(lambda a: load(a)),
        st.tuples(st.integers(0, lines - 1), st.integers(0, lines - 1))
          .map(lambda t: load(*t)),
        st.integers(0, lines - 1).map(lambda a: store(a)),
        st.integers(0, lines - 1).map(lambda a: atomic(a)),
        st.just(fence()),
        st.integers(1, 4).map(compute),
    )
    return st.lists(instr, min_size=1, max_size=max_len) \
             .map(lambda t: t + [fence()])


def kernel_strategy(warps=4, lines=6, max_len=25):
    return st.lists(trace_strategy(lines, max_len), min_size=2,
                    max_size=warps).map(
        lambda traces: Kernel("hyp", traces))


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(max_examples=40, **COMMON)
@given(kernel_strategy())
def test_gtsc_rc_timestamp_order_holds(kernel):
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    run_and_check(config, kernel)


@settings(max_examples=40, **COMMON)
@given(kernel_strategy())
def test_gtsc_sc_timestamp_order_and_monotonicity_hold(kernel):
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.SC)
    run_and_check(config, kernel)


@settings(max_examples=25, **COMMON)
@given(kernel_strategy(lines=3, max_len=20))
def test_gtsc_hot_line_contention(kernel):
    """Tiny footprint maximises write-write and read-write races."""
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    run_and_check(config, kernel)


@settings(max_examples=25, **COMMON)
@given(kernel_strategy(lines=48, max_len=20))
def test_gtsc_under_heavy_eviction(kernel):
    """Footprint far beyond the tiny caches: constant refills."""
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    run_and_check(config, kernel)


@settings(max_examples=20, **COMMON)
@given(kernel_strategy(lines=4, max_len=30))
def test_gtsc_overflow_pressure(kernel):
    """A 255-entry timestamp space forces resets mid-run."""
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC,
                            ts_max=255)
    run_and_check(config, kernel)


@settings(max_examples=20, **COMMON)
@given(kernel_strategy())
def test_gtsc_old_copy_policy(kernel):
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC,
                            visibility=VisibilityPolicy.OLD_COPY)
    run_and_check(config, kernel)


@settings(max_examples=20, **COMMON)
@given(kernel_strategy())
def test_gtsc_forward_all_combining(kernel):
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC,
                            combining=CombiningPolicy.FORWARD_ALL)
    run_and_check(config, kernel)


@settings(max_examples=15, **COMMON)
@given(kernel_strategy(), st.sampled_from([Consistency.SC,
                                           Consistency.RC]))
def test_tc_and_baselines_always_complete(kernel, consistency):
    """The baselines have no logical-time invariant to check, but they
    must never hang or drop operations."""
    from repro.gpu.gpu import GPU
    for protocol in (Protocol.TC, Protocol.DISABLED):
        config = GPUConfig.tiny(protocol=protocol, consistency=consistency)
        stats = GPU(config).run(kernel, max_events=2_000_000)
        assert stats.counter("warps_retired") == kernel.num_warps


@settings(max_examples=20, **COMMON)
@given(kernel_strategy(), st.sampled_from([Consistency.SC,
                                           Consistency.RC]))
def test_every_coherent_protocol_preserves_per_location_order(
        kernel, consistency):
    """Differential coherence fuzz: CoRR (per-observer write-order
    monotonicity) and atomic tear-freedom hold for every coherent
    protocol on the same random kernel."""
    from repro.gpu.gpu import GPU
    from repro.validate.checker import (
        check_atomicity,
        check_per_location_monotonic,
    )
    for protocol in (Protocol.GTSC, Protocol.TC, Protocol.MESI,
                     Protocol.DISABLED):
        config = GPUConfig.tiny(protocol=protocol,
                                consistency=consistency)
        gpu = GPU(config)
        gpu.run(kernel, max_events=2_000_000)
        log, versions = gpu.machine.log, gpu.machine.versions
        assert check_per_location_monotonic(log, versions) \
            == len(log.loads)
        assert check_atomicity(log, versions) == len(log.atomics)


@settings(max_examples=10, **COMMON)
@given(st.integers(0, 10_000))
def test_runs_are_deterministic(seed):
    """Same kernel + same config = bit-identical statistics."""
    rng = random.Random(seed)
    from tests.conftest import random_kernel, run_gpu
    kernel = random_kernel(seed, warps=4, length=30)
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    _, a = run_gpu(config, kernel)
    _, b = run_gpu(config, kernel)
    assert a.cycles == b.cycles
    assert a.counters == b.counters
