"""Every L1's access-log records are pinned.

The RunStats goldens run without an access log, and the atomics golden
keeps only the log's sizes, so neither pins the ``LoadRecord``,
``StoreRecord`` and ``AtomicRecord`` values that the L1s build and the
checkers read.  ``golden/access_log_tiny.json`` holds one entry per
run: every protocol under SC and RC on BFS (tiny preset, scale 0.3)
and on ``racing_atomics``, plus G-TSC-RC with the old-copy visibility
policy on both.  Each entry is the run's RunStats and a sha256 over
each kind of record in log order.  To regenerate the fixture after an
intended change, dump ``_capture(key)`` for every key.
"""

import hashlib
import json
import os
from dataclasses import astuple

import pytest

from repro.config import Consistency, GPUConfig, Protocol, VisibilityPolicy
from repro.gpu.gpu import GPU
from repro.workloads import build_workload

from tests.conftest import racing_atomics

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "access_log_tiny.json")

with open(GOLDEN_PATH) as handle:
    GOLDEN = json.load(handle)

WORKLOADS = ("BFS", "racing-atomics")

#: ``workload|protocol|consistency[|visibility]``
KEYS = sorted(
    [f"{workload}|{protocol.value}|{consistency.value}"
     for workload in WORKLOADS
     for protocol in Protocol
     for consistency in Consistency]
    + [f"{workload}|{Protocol.GTSC.value}|{Consistency.RC.value}|"
       f"{VisibilityPolicy.OLD_COPY.value}" for workload in WORKLOADS])


def _kernel(workload: str):
    if workload == "racing-atomics":
        return racing_atomics()
    return build_workload(workload, scale=0.3, seed=2018)


def _digest(records) -> str:
    """sha256 over the records' fields, in log order."""
    payload = json.dumps([astuple(record) for record in records])
    return hashlib.sha256(payload.encode()).hexdigest()


def _capture(key: str) -> dict:
    workload, protocol, consistency, *visibility = key.split("|")
    overrides = {}
    if visibility:
        overrides["visibility"] = VisibilityPolicy(visibility[0])
    config = GPUConfig.tiny(protocol=Protocol(protocol),
                            consistency=Consistency(consistency),
                            **overrides)
    with GPU(config) as gpu:
        stats = gpu.run(_kernel(workload))
        log = gpu.machine.log
        records = {"loads": _digest(log.loads),
                   "stores": _digest(log.stores),
                   "atomics": _digest(log.atomics)}
    return {"runstats": stats.to_dict(), "records": records}


@pytest.mark.parametrize("key", KEYS)
def test_access_log_records_match_golden(key):
    expected = json.dumps(GOLDEN[key], sort_keys=True)
    actual = json.dumps(_capture(key), sort_keys=True)
    assert actual == expected, f"access log or RunStats changed for {key}"


def test_access_log_golden_covers_every_run():
    assert sorted(GOLDEN) == KEYS
