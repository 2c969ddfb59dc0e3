"""End-to-end G-TSC scenarios, including the paper's worked examples."""

from repro.config import Consistency, GPUConfig, Protocol, VisibilityPolicy
from repro.gpu.gpu import GPU
from repro.trace import Kernel, compute, fence, load, store
from repro.validate.checker import check_gtsc_log, check_warp_monotonicity

from tests.conftest import random_kernel, run_and_check


X, Y = 0, 1  # two lines homed on the same bank in the tiny config


def test_figure9_example_is_timestamp_consistent():
    """The Section IV worked example: two SMs cross-accessing X and Y.

    SM0: LD X;  ST Y;  LD X        SM1: LD Y;  ST X;  LD Y

    The exact timestamps depend on timing, but the defining outcome of
    the example must hold: every load's logical time falls inside the
    window of the version it returned, and each store is ordered after
    the leases it conflicted with.
    """
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.SC)
    kernel = Kernel("fig9", [
        [load(X), store(Y), load(X), fence()],
        [load(Y), store(X), load(Y), fence()],
    ])
    gpu, _stats = run_and_check(config, kernel)
    log = gpu.machine.log
    # both stores performed, all four loads observed
    assert len(log.stores) == 2
    assert len(log.loads) == 4
    # the store to Y was logically scheduled after Y's initial lease
    store_y = next(s for s in log.stores if s.addr == Y)
    assert store_y.logical_ts > 1


def test_own_store_visible_to_later_own_load():
    """A warp always reads its own most recent write (program order)."""
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    kernel = Kernel("own", [[load(X), store(X), load(X), fence()]])
    gpu, _ = run_and_check(config, kernel)
    log = gpu.machine.log
    last_load = max((r for r in log.loads if r.addr == X),
                    key=lambda r: r.complete_cycle)
    assert last_load.version == log.stores[0].version


def test_figure10_update_visibility_no_early_read():
    """Section V-A: no warp may observe a store at a logical time
    before the store's assigned timestamp.

    Warp 0 writes A while warp 1 (same SM) races to read it; under the
    delay policy the read either sees the old version (ordered before)
    or the new version at/after its timestamp — never the coherence
    violation of Figure 10.  The value checker enforces exactly this.
    """
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC,
                            visibility=VisibilityPolicy.DELAY)
    kernel = Kernel("fig10", [
        [load(X), store(X), fence()],
        [load(X), compute(2), load(X), compute(2), load(X), fence()],
    ])
    run_and_check(config, kernel)


def test_figure10_old_copy_variant_is_also_coherent():
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC,
                            visibility=VisibilityPolicy.OLD_COPY)
    kernel = Kernel("fig10b", [
        [load(X), store(X), fence()],
        [load(X), compute(2), load(X), compute(2), load(X), fence()],
    ])
    run_and_check(config, kernel)


def test_write_write_race_from_two_sms():
    """Concurrent stores to one line serialize with increasing wts."""
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    kernel = Kernel("ww", [
        [store(X), store(X), fence()],
        [store(X), store(X), fence()],
    ])
    gpu, _ = run_and_check(config, kernel)
    versions = gpu.machine.versions
    stamps = [versions.wts_of(X, v)[1]
              for v in range(1, versions.latest(X) + 1)]
    # the L2 hands out strictly increasing timestamps per line,
    # in its processing order
    ordered = sorted(stamps)
    assert len(set(stamps)) == len(stamps)
    assert stamps == ordered or set(stamps) == set(ordered)


def test_read_write_sharing_across_many_warps():
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.SC)
    kernel = random_kernel(seed=11, warps=4, length=50, lines=6)
    run_and_check(config, kernel)


def test_rc_and_sc_both_coherent_on_random_mixes():
    for consistency in (Consistency.SC, Consistency.RC):
        for seed in (1, 2, 3):
            config = GPUConfig.tiny(protocol=Protocol.GTSC,
                                    consistency=consistency)
            run_and_check(config, random_kernel(seed, warps=4, length=60))


def test_sc_blocks_store_until_ack():
    """Under SC a warp issues nothing past an un-acked store."""
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.SC)
    kernel = Kernel("scstore", [[store(X), compute(1), load(Y), fence()]])
    gpu, _ = run_and_check(config, kernel)
    log = gpu.machine.log
    store_done = log.stores[0].complete_cycle
    load_done = log.loads[0].complete_cycle
    assert load_done > store_done


def test_rc_overlaps_store_with_later_work():
    """Under RC the warp proceeds while its store is in flight."""
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    # X and Y: after the store to X, a load of Y can complete before
    # the store's acknowledgment returns
    kernel = Kernel("rcstore", [[load(Y), store(X), load(Y), fence()]])
    gpu, _ = run_and_check(config, kernel)
    log = gpu.machine.log
    second_load = max(r.complete_cycle for r in log.loads)
    store_done = log.stores[0].complete_cycle
    # the second Y load hits in L1 and beats the store's NoC round trip
    assert second_load < store_done


def test_fence_drains_outstanding_stores():
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    kernel = Kernel("fence", [[store(X), store(Y), fence(), load(X),
                               fence()]])
    gpu, stats = run_and_check(config, kernel)
    assert stats.counter("fences") == 2
    log = gpu.machine.log
    fence_load = max(r.complete_cycle for r in log.loads)
    assert fence_load > max(s.complete_cycle for s in log.stores)


def test_l1_eviction_pressure_stays_coherent():
    """Working set far beyond the tiny L1 forces constant evictions."""
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    run_and_check(config, random_kernel(seed=5, warps=4, length=80,
                                        lines=64))


def test_stats_cycle_count_is_positive_and_kernel_flushes_l1():
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    gpu = GPU(config)
    stats = gpu.run(Kernel("k", [[load(X), fence()]]))
    assert stats.cycles > 0
    assert gpu.machine.l1s[0].cache.occupancy() == 0  # flushed
