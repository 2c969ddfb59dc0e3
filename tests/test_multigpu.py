"""The multi-GPU cluster (repro.multigpu): correctness end to end.

Covers the HALCONE-style machine at 2 and 4 GPUs: cross-GPU litmus
outcomes under every protocol, G-TSC audit replay over the shared
home directory, the home directory's capacity summarization, the
``n_gpus=1`` identity (the cluster path never perturbs single-GPU
results), bit-reproducibility of cluster runs, and the cluster golden
(``tests/golden/runstats_cluster_tiny.json``).
"""

import json
import os
import random

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU, make_gpu
from repro.multigpu import HomeDirectory
from repro.stats import names
from repro.workloads import MULTIGPU_NAMES, build_workload
from repro.workloads.litmus import (
    X_LINE,
    Y_LINE,
    message_passing,
    mp_outcomes,
    observed_versions,
    store_buffering,
)

SEEDS = range(4)
GPU_COUNTS = (2, 4)

COHERENT_CONFIGS = [
    (Protocol.GTSC, Consistency.SC),
    (Protocol.GTSC, Consistency.RC),
    (Protocol.TC, Consistency.SC),
    (Protocol.TC, Consistency.RC),
    (Protocol.MESI, Consistency.SC),
    (Protocol.MESI, Consistency.RC),
    (Protocol.DISABLED, Consistency.SC),
    (Protocol.DISABLED, Consistency.RC),
]

SC_CONFIGS = [(p, c) for p, c in COHERENT_CONFIGS
              if c is Consistency.SC]


def cluster_config(protocol, consistency, n_gpus, **overrides):
    return GPUConfig.tiny(protocol=protocol, consistency=consistency,
                          n_gpus=n_gpus, **overrides)


def run_litmus(kernel, protocol, consistency, n_gpus):
    gpu = make_gpu(cluster_config(protocol, consistency, n_gpus))
    gpu.run(kernel)
    return gpu


# ---------------------------------------------------------------------------
# cross-GPU litmus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_gpus", GPU_COUNTS)
@pytest.mark.parametrize("protocol,consistency", COHERENT_CONFIGS)
def test_cross_gpu_message_passing_never_reads_stale_data(
        protocol, consistency, n_gpus):
    """Writer and reader are consecutive CTAs, hence on *different*
    GPUs: a reader that saw the flag must see the fence-ordered data
    across the interlink too."""
    for seed in SEEDS:
        kernel = message_passing(random.Random(seed), with_fences=True)
        gpu = run_litmus(kernel, protocol, consistency, n_gpus)
        for flag_version, data_version in mp_outcomes(gpu.machine.log):
            if flag_version >= 1:
                assert data_version >= 1, (
                    f"{protocol}/{consistency} x{n_gpus}GPU seed "
                    f"{seed}: saw flag but stale data")


def test_cross_gpu_message_passing_handoff_crosses_the_link():
    """Sanity for the suite above: the MP handoff is really remote
    (interlink messages flow) and really observed (flag seen >= once)."""
    hits = 0
    for seed in SEEDS:
        kernel = message_passing(random.Random(seed), with_fences=True)
        gpu = run_litmus(kernel, Protocol.GTSC, Consistency.RC, 2)
        assert gpu.machine.stats.snapshot()["interlink_messages"] > 0
        hits += sum(1 for f, _ in mp_outcomes(gpu.machine.log) if f >= 1)
    assert hits > 0


@pytest.mark.parametrize("n_gpus", GPU_COUNTS)
@pytest.mark.parametrize("protocol,consistency", SC_CONFIGS)
def test_cross_gpu_store_buffering_forbidden_under_sc(
        protocol, consistency, n_gpus):
    """SC forbids both warps reading 0, even with the two warps on
    different GPUs and both lines homed remotely for one of them."""
    for seed in SEEDS:
        kernel = store_buffering(random.Random(seed))
        gpu = run_litmus(kernel, protocol, consistency, n_gpus)
        log = gpu.machine.log
        r0 = observed_versions(log, warp_uid=0, addr=Y_LINE)
        r1 = observed_versions(log, warp_uid=1, addr=X_LINE)
        assert r0 and r1
        assert r0[0] >= 1 or r1[0] >= 1, (
            f"{protocol}/{consistency} x{n_gpus}GPU seed {seed}: "
            f"both warps read 0 under SC")


@pytest.mark.parametrize("n_gpus", GPU_COUNTS)
def test_gtsc_cross_gpu_audit_replay_is_violation_free(n_gpus):
    from repro.obs import Observability, replay_audit
    from repro.obs.audit import ProtocolAuditLog

    config = cluster_config(Protocol.GTSC, Consistency.SC, n_gpus)
    obs = Observability(audit=ProtocolAuditLog())
    gpu = make_gpu(config, obs=obs)
    gpu.run(message_passing(random.Random(7), with_fences=True))
    replayed = replay_audit(obs.audit.records, lease=config.lease,
                            home_capacity=config.home_ts_entries)
    assert replayed == len(obs.audit.records) > 0
    # cluster audit units carry the per-GPU prefix
    units = {record.unit for record in obs.audit.records}
    assert any(unit.startswith("g1:") for unit in units)


# ---------------------------------------------------------------------------
# inter-GPU workloads on the cluster
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", [Protocol.GTSC, Protocol.TC,
                                      Protocol.MESI])
@pytest.mark.parametrize("name", MULTIGPU_NAMES)
def test_multigpu_workloads_complete_on_the_cluster(name, protocol):
    config = cluster_config(protocol, Consistency.RC, 2)
    kernel = build_workload(name, scale=0.15, seed=1)
    stats = make_gpu(config, record_accesses=False).run(kernel)
    assert stats.counter("warps_retired") == kernel.num_warps
    assert stats.counter("interlink_bytes") > 0


def test_cluster_emits_only_registered_stat_names():
    config = cluster_config(Protocol.GTSC, Consistency.RC, 2)
    kernel = build_workload("PCX", scale=0.15, seed=1)
    stats = make_gpu(config, record_accesses=False).run(kernel)
    assert names.unregistered(stats.counters) == set()


# ---------------------------------------------------------------------------
# cluster golden: pinned RunStats of 2- and 4-GPU runs
# ---------------------------------------------------------------------------
# ``runstats_cluster_tiny.json`` holds ``RunStats.to_dict()`` payloads
# (tiny preset, scale 0.3, seed 2018) for every protocol under SC and
# RC on PCX at 2 GPUs, and G-TSC/TC/MESI under RC on NZP at 4 GPUs.
# Keys are ``workload|protocol|consistency|n_gpus``.  A change that
# means to alter simulated cluster behaviour regenerates the fixture
# from ``_simulate_cluster_key`` and says so.

CLUSTER_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                                   "runstats_cluster_tiny.json")

with open(CLUSTER_GOLDEN_PATH) as handle:
    CLUSTER_GOLDEN = json.load(handle)


def _simulate_cluster_key(key: str) -> dict:
    workload, protocol, consistency, n_gpus = key.split("|")
    config = cluster_config(Protocol(protocol), Consistency(consistency),
                            int(n_gpus))
    kernel = build_workload(workload, scale=0.3, seed=2018)
    return make_gpu(config, record_accesses=False).run(kernel).to_dict()


@pytest.mark.parametrize("key", sorted(CLUSTER_GOLDEN))
def test_cluster_runstats_match_the_golden(key):
    expected = json.dumps(CLUSTER_GOLDEN[key], sort_keys=True)
    actual = json.dumps(_simulate_cluster_key(key), sort_keys=True)
    assert actual == expected, f"simulated cluster outcome changed for {key}"


def test_cluster_golden_covers_every_protocol_at_two_gpus():
    """Guard the fixture itself against accidental truncation."""
    two_gpu = {tuple(key.split("|")[1:3]) for key in CLUSTER_GOLDEN
               if key.endswith("|2")}
    assert two_gpu == {(p.value, c.value) for p in Protocol
                       for c in Consistency}
    assert {key for key in CLUSTER_GOLDEN if key.endswith("|4")} == {
        f"NZP|{p.value}|rc|4"
        for p in (Protocol.GTSC, Protocol.TC, Protocol.MESI)}


def test_cluster_runs_are_bit_reproducible():
    config = cluster_config(Protocol.GTSC, Consistency.RC, 4)
    kernel = build_workload("ARX", scale=0.15, seed=3)
    a = make_gpu(config, record_accesses=False).run(kernel)
    b = make_gpu(config, record_accesses=False).run(kernel)
    assert a.cycles == b.cycles
    assert a.counters == b.counters


def test_run_sequence_resets_every_gpu_and_the_home_directory():
    """The kernel boundary (Section V-D) on a cluster: every GPU's L1s
    adopt the shared domain's new epoch and the home directory clears
    with it."""
    config = cluster_config(Protocol.GTSC, Consistency.RC, 2)
    kernels = [build_workload(name, scale=0.3, seed=1)
               for name in ("PCX", "NZP")]
    # without a boundary the kernel leaves folded timestamps behind
    ran = make_gpu(config, record_accesses=False)
    ran.run(kernels[0])
    assert ran.home.entries
    gpu = make_gpu(config, record_accesses=False)
    gpu.run_sequence(kernels)
    domain = gpu.timestamp_domain
    assert domain.epoch >= len(kernels)
    for machine in gpu.machines:
        assert machine.timestamp_domain is domain
        assert [l1.epoch for l1 in machine.l1s] == \
            [domain.epoch] * config.num_sms
    assert gpu.home.floor == 1
    assert gpu.home.entries == {}


# ---------------------------------------------------------------------------
# n_gpus = 1: the cluster path must not exist
# ---------------------------------------------------------------------------

def test_single_gpu_config_builds_the_plain_machine():
    from repro.core.l1 import GTSCL1Controller
    from repro.core.l2 import GTSCL2Bank

    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    gpu = make_gpu(config)
    assert isinstance(gpu, GPU)
    assert gpu.machines == [gpu.machine]
    assert gpu.interlink is None and gpu.home is None
    assert gpu.machine.cluster is None
    assert {type(l1) for l1 in gpu.machine.l1s} == {GTSCL1Controller}
    assert {type(bank) for bank in gpu.machine.l2_banks} == {GTSCL2Bank}


def test_explicit_n_gpus_1_is_stat_identical_to_the_default():
    kernel = build_workload("BFS", scale=0.15, seed=1)
    plain = GPUConfig.tiny(protocol=Protocol.GTSC)
    explicit = GPUConfig.tiny(protocol=Protocol.GTSC, n_gpus=1)
    a = make_gpu(plain, record_accesses=False).run(kernel)
    b = make_gpu(explicit, record_accesses=False).run(kernel)
    assert a.cycles == b.cycles
    assert a.counters == b.counters
    # and no interlink counters ever appear on a single GPU
    assert "interlink_bytes" not in a.counters
    assert a.counters.get("interlink_messages", 0) == 0


def test_single_gpu_units_carry_no_cluster_prefix():
    from repro.obs import Observability
    from repro.obs.audit import ProtocolAuditLog

    obs = Observability(audit=ProtocolAuditLog())
    gpu = make_gpu(GPUConfig.tiny(protocol=Protocol.GTSC), obs=obs)
    gpu.run(message_passing(random.Random(1)))
    units = {record.unit for record in obs.audit.records}
    assert units and all(":" not in unit for unit in units)


# ---------------------------------------------------------------------------
# home directory
# ---------------------------------------------------------------------------

def test_home_directory_mem_ts_starts_at_floor():
    home = HomeDirectory(capacity=8)
    assert home.mem_ts_of(123) == 1


def test_home_directory_fold_raises_per_address_mem_ts():
    home = HomeDirectory(capacity=8)
    home.fold(5, 40)
    assert home.mem_ts_of(5) == 40
    assert home.mem_ts_of(6) == 1
    home.fold(5, 12)                  # folds never lower a mem_ts
    assert home.mem_ts_of(5) == 40


def test_home_directory_summarizes_at_capacity():
    home = HomeDirectory(capacity=4)
    for addr in range(8):
        home.fold(addr, 10 + addr)
    assert len(home.entries) <= 4
    # summarization folds the dropped (smallest) values into the
    # floor: conservative, never lowers any address's mem_ts
    assert home.floor >= 10
    for addr in range(8):
        assert home.mem_ts_of(addr) >= min(10 + addr, home.floor)


def test_home_directory_summarization_is_deterministic():
    def build():
        home = HomeDirectory(capacity=4)
        for addr in (3, 1, 7, 5, 2, 8, 6, 4):
            home.fold(addr, 20 + addr)
        return home.floor, dict(home.entries)

    assert build() == build()


def test_home_directory_reset_restores_the_initial_floor():
    home = HomeDirectory(capacity=4)
    for addr in range(6):
        home.fold(addr, 50 + addr)
    home.reset()
    assert home.floor == 1
    assert not home.entries
    assert home.mem_ts_of(0) == 1


# ---------------------------------------------------------------------------
# config surface
# ---------------------------------------------------------------------------

def test_config_rejects_nonpositive_gpu_count():
    with pytest.raises(ValueError):
        GPUConfig.tiny(n_gpus=0)


def test_config_rejects_bad_interlink_knobs_for_clusters():
    with pytest.raises(ValueError):
        GPUConfig.tiny(n_gpus=2, interlink_latency=0)
    with pytest.raises(ValueError):
        GPUConfig.tiny(n_gpus=2, interlink_bandwidth=0)
    # the same knobs are ignored (and legal) on a single GPU
    GPUConfig.tiny(n_gpus=1, interlink_latency=0)


def test_describe_names_the_gpu_count():
    assert "2GPU" in GPUConfig.tiny(n_gpus=2).describe()
    assert "GPU" not in GPUConfig.tiny().describe()


def test_run_key_distinguishes_cluster_shapes():
    from repro.harness.cache import run_key

    base = GPUConfig.tiny(protocol=Protocol.GTSC)
    two = GPUConfig.tiny(protocol=Protocol.GTSC, n_gpus=2)
    slow = GPUConfig.tiny(protocol=Protocol.GTSC, n_gpus=2,
                          interlink_latency=400)
    keys = {run_key(config, "PCX", 0.2, 1)
            for config in (base, two, slow)}
    assert len(keys) == 3
