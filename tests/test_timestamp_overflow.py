"""Timestamp overflow handling (Section V-D)."""

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.core.timestamps import TimestampDomain
from repro.gpu.gpu import GPU
from repro.trace import Kernel, fence, load, store

from tests.conftest import random_kernel, run_and_check


# ---------------------------------------------------------------------------
# TimestampDomain unit tests
# ---------------------------------------------------------------------------

def test_domain_starts_at_epoch_zero():
    domain = TimestampDomain(ts_max=100, lease=10)
    assert domain.epoch == 0


def test_would_overflow_boundary():
    domain = TimestampDomain(ts_max=100, lease=10)
    assert not domain.would_overflow(100)
    assert domain.would_overflow(101)


def test_clamp_passes_through_in_range():
    domain = TimestampDomain(ts_max=100, lease=10)
    assert domain.clamp(55) == 55
    assert domain.epoch == 0


def test_clamp_resets_on_overflow():
    domain = TimestampDomain(ts_max=100, lease=10)
    fired = []
    domain.on_reset(lambda: fired.append(domain.epoch))
    assert domain.clamp(101) == -1
    assert domain.epoch == 1
    assert fired == [1]


def test_multiple_listeners_all_fire():
    domain = TimestampDomain(ts_max=100, lease=10)
    fired = []
    domain.on_reset(lambda: fired.append("a"))
    domain.on_reset(lambda: fired.append("b"))
    domain.overflow_reset()
    assert fired == ["a", "b"]


def test_domain_rejects_tiny_ts_max():
    with pytest.raises(ValueError):
        TimestampDomain(ts_max=15, lease=10)


# ---------------------------------------------------------------------------
# system-level overflow behaviour
# ---------------------------------------------------------------------------

def overflow_config(**overrides):
    return GPUConfig.tiny(protocol=Protocol.GTSC, ts_max=255, lease=10,
                          **overrides)


def test_store_hammering_triggers_resets_and_stays_coherent():
    """Each store advances a line's wts by ~lease; a 255-max space
    overflows quickly and must reset cleanly (and repeatedly)."""
    config = overflow_config(consistency=Consistency.RC)
    trace = []
    for _ in range(60):
        trace.append(store(0))
        trace.append(load(0))
    trace.append(fence())
    kernel = Kernel("hammer", [trace, list(trace)])
    gpu, stats = run_and_check(config, kernel)
    assert stats.counter("ts_overflows") >= 2


def test_l2_keeps_data_across_reset():
    """Resets rewrite timestamps but never lose written values."""
    config = overflow_config(consistency=Consistency.SC)
    writer = []
    for _ in range(40):
        writer.append(store(0))
    writer.append(fence())
    reader = [load(1)] * 3 + [load(0), fence()]
    kernel = Kernel("keep", [writer, reader])
    gpu, stats = run_and_check(config, kernel)
    assert stats.counter("ts_overflows") >= 1
    # the final value in the L2/memory is the last minted version
    assert gpu.machine.versions.latest(0) == 40


def test_epoch_propagates_to_l1_and_warps():
    config = overflow_config(consistency=Consistency.RC)
    trace = [store(0) for _ in range(40)] + [load(0), fence()]
    gpu, stats = run_and_check(config, Kernel("epoch", [trace]))
    domain = gpu.machine.timestamp_domain
    assert domain.epoch >= 1
    # every L1 that heard about the reset adopted the epoch
    l1 = gpu.machine.l1s[0]
    assert l1.epoch == domain.epoch


def test_random_traffic_across_many_resets_is_coherent():
    for seed in (3, 9):
        config = overflow_config(consistency=Consistency.RC)
        kernel = random_kernel(seed, warps=4, length=100, lines=4,
                               p_store=0.5, p_load=0.4)
        gpu, stats = run_and_check(config, kernel)
        assert stats.counter("ts_overflows") >= 1


def test_sixteen_bit_default_never_overflows_small_runs():
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    kernel = random_kernel(1, warps=4, length=60)
    _, stats = run_and_check(config, kernel)
    assert stats.counter("ts_overflows") == 0


# ---------------------------------------------------------------------------
# shared clock across GPUs (repro.multigpu): one domain, many machines
# ---------------------------------------------------------------------------

def test_reset_snapshot_tolerates_listener_registration():
    domain = TimestampDomain(ts_max=100, lease=10)
    fired = []
    domain.on_reset(lambda: (fired.append("a"),
                             domain.on_reset(lambda: fired.append("late"))))
    domain.overflow_reset()
    assert fired == ["a"]          # the new listener waits a round
    domain.overflow_reset()
    assert fired == ["a", "a", "late"]


def test_reentrant_reset_fails_loudly():
    domain = TimestampDomain(ts_max=100, lease=10)
    domain.on_reset(domain.overflow_reset)
    with pytest.raises(RuntimeError, match="re-entrant"):
        domain.overflow_reset()
    assert domain.epoch == 1       # the outer reset completed its bump


def _hammer_kernel(warps: int) -> Kernel:
    trace = []
    for _ in range(60):
        trace.append(store(0))
        trace.append(load(0))
    trace.append(fence())
    return Kernel("hammer-x", [list(trace) for _ in range(warps)])


def test_two_gpu_shared_clock_overflow_stays_coherent():
    """A 255-wide epoch shared by two GPUs overflows repeatedly; every
    reset must rewrite both GPUs' banks plus the home directory in one
    atomic sweep, and all coherence invariants must survive."""
    config = overflow_config(consistency=Consistency.RC, n_gpus=2)
    gpu, stats = run_and_check(config, _hammer_kernel(4))
    assert stats.counter("ts_overflows") >= 2
    assert stats.counter("interlink_bytes") > 0   # traffic crossed GPUs
    # one shared clock: every machine sees the same domain object/epoch
    domains = {id(m.timestamp_domain) for m in gpu.machines}
    assert len(domains) == 1
    assert gpu.machines[0].timestamp_domain.epoch == \
        stats.counter("ts_overflows")
    # the shared home directory was reset along with the banks: its
    # rising floor restarted and cannot exceed the post-reset clock
    assert gpu.home.floor >= 1


def test_two_gpu_overflow_audit_replay_is_clean():
    """Cross-GPU audit replay (home-directory shadow + cluster-wide
    write monotonicity) stays violation-free across epoch resets."""
    from repro.obs import Observability, replay_audit
    from repro.obs.audit import ProtocolAuditLog
    from repro.gpu.gpu import make_gpu

    config = overflow_config(consistency=Consistency.RC, n_gpus=2,
                             home_ts_entries=8)
    obs = Observability(audit=ProtocolAuditLog())
    gpu = make_gpu(config, obs=obs)
    stats = gpu.run(_hammer_kernel(4))
    assert stats.counter("ts_overflows") >= 2
    replayed = replay_audit(obs.audit.records, lease=config.lease,
                            home_capacity=config.home_ts_entries)
    assert replayed == len(obs.audit.records) > 0


def test_two_gpu_overflow_is_deterministic():
    config = overflow_config(consistency=Consistency.RC, n_gpus=2)
    kernel = _hammer_kernel(4)
    from repro.gpu.gpu import make_gpu
    a = make_gpu(config, record_accesses=False).run(kernel)
    b = make_gpu(config, record_accesses=False).run(kernel)
    assert a.cycles == b.cycles
    assert a.counters == b.counters
