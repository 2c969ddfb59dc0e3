"""The hot-path overhaul changed no simulated outcome.

``tests/golden/runstats_tiny.json`` holds ``RunStats.to_dict()``
payloads captured from the simulator *before* the packed-trace /
closure-free-callback / incremental-scheduling rewrite: all four
protocols, two consistency models, both schedulers, three workloads
on the tiny preset.  Every case must still reproduce byte-identically
— serialized with ``json.dumps(..., sort_keys=True)`` — proving the
optimizations are pure perf work.

If a future PR *intends* to change simulated behaviour, regenerate
the fixture (run this file's ``_simulate`` for every key and dump the
results) and say so in the commit message.
"""

import json
import os

import pytest

from repro.config import Consistency, GPUConfig, Protocol, SchedulerPolicy
from repro.gpu.gpu import GPU
from repro.workloads import build_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "runstats_tiny.json")

with open(GOLDEN_PATH) as handle:
    GOLDEN = json.load(handle)


def _run(key: str, obs=None):
    workload, protocol, consistency, scheduler = key.split("|")
    config = GPUConfig.tiny(protocol=Protocol(protocol),
                            consistency=Consistency(consistency),
                            scheduler=SchedulerPolicy(scheduler))
    kernel = build_workload(workload, scale=0.3, seed=2018)
    gpu = GPU(config, record_accesses=False, obs=obs)
    return gpu, gpu.run(kernel)


def _simulate(key: str) -> dict:
    return _run(key)[1].to_dict()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_runstats_bit_identical_to_pre_overhaul_golden(key):
    expected = json.dumps(GOLDEN[key], sort_keys=True)
    actual = json.dumps(_simulate(key), sort_keys=True)
    assert actual == expected, f"simulated outcome changed for {key}"


def test_golden_covers_every_protocol_and_two_workloads():
    """Guard the fixture itself against accidental truncation."""
    protocols = {key.split("|")[1] for key in GOLDEN}
    workloads = {key.split("|")[0] for key in GOLDEN}
    assert protocols == {p.value for p in
                         (Protocol.GTSC, Protocol.TC, Protocol.MESI,
                          Protocol.DISABLED)}
    assert len(workloads) >= 2


# ---------------------------------------------------------------------------
# one golden key per protocol x obs on/off: golden match, audit replay
# ---------------------------------------------------------------------------
# With or without the full observability bundle attached, the run must
# match its golden (obs adds only a timeseries), and with it attached
# the G-TSC audit log must replay clean.  One key per protocol keeps
# the matrix affordable.

from repro.obs import Observability, replay_audit  # noqa: E402

PROTOCOL_KEYS = sorted(
    {key.split("|")[1]: key for key in sorted(GOLDEN)}.values())


@pytest.mark.parametrize("with_obs", [False, True],
                         ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("key", PROTOCOL_KEYS)
def test_golden_and_audit_replay(key, with_obs):
    obs = Observability.full() if with_obs else None
    gpu, stats = _run(key, obs)
    payload = stats.to_dict()
    assert bool(payload.pop("timeseries", None)) == with_obs
    assert json.dumps(payload, sort_keys=True) == \
        json.dumps(GOLDEN[key], sort_keys=True)
    protocol = key.split("|")[1]
    if with_obs and protocol == "gtsc":
        assert replay_audit(obs.audit.records,
                            gpu.machine.config.lease) > 0


# ---------------------------------------------------------------------------
# ready-mask property: the scheduler scan equals a per-slot predicate
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# a packed warp classification: -1 (dirty), a bare state (0..4), or a
# wake-timer entry ((wake + 1) << 3 | state)
_cls_entry = st.one_of(
    st.just(-1),
    st.integers(min_value=0, max_value=4),
    st.builds(lambda wake, state: ((wake + 1) << 3) | state,
              st.integers(min_value=0, max_value=100_000),
              st.integers(min_value=0, max_value=4)),
)


def _is_candidate(cls: int, now: int) -> bool:
    """Whether one packed slot might issue at ``now``."""
    if cls == -1:            # dirty: must be reclassified
        return True
    wake = (cls >> 3) - 1    # -1 when no wake time is packed
    if wake < 0:
        return cls == 0      # a bare state issues only when READY
    return now >= wake       # timed: a candidate once the clock is there


@settings(max_examples=200, deadline=None)
@given(st.lists(_cls_entry, max_size=64),
       st.integers(min_value=0, max_value=200_000))
def test_ready_mask_implementations_agree(cls_values, now):
    from repro.gpu.sm import ready_mask

    expected = sum(1 << slot for slot, cls in enumerate(cls_values)
                   if _is_candidate(cls, now))
    assert ready_mask(cls_values, now) == expected
