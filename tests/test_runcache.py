"""Tests for run-result persistence and reuse through the results DB.

A stored run is only usable if (a) the RunStats round trip is exact,
(b) the key covers every parameter that changes the result, and (c)
damaged rows degrade to re-simulation, never to wrong data.
"""

import dataclasses
import enum
import json
import sqlite3

import pytest

import repro
from repro.config import (Consistency, GPUConfig, LeasePolicy,
                          Protocol, VisibilityPolicy)
from repro.gpu.gpu import GPU
from repro.harness.cache import run_key
from repro.harness.runner import ExperimentRunner
from repro.stats.collector import RunStats
from repro.stats.histogram import Histogram
from repro.trace.instr import Kernel, fence, load, store


def small_run() -> RunStats:
    """A real simulation small enough for a unit test, with at least
    one populated histogram."""
    config = GPUConfig.tiny()
    kernel = Kernel("rt", [
        [load(0), store(1), load(2), fence()],
        [load(1), store(0), fence()],
    ])
    return GPU(config).run(kernel)


# ---------------------------------------------------------------------------
# serialisation round trip
# ---------------------------------------------------------------------------

def test_histogram_round_trip_is_exact():
    histogram = Histogram("lat")
    for value in (0, 1, 3, 9, 100, 100, 5000):
        histogram.add(value)
    data = json.loads(json.dumps(histogram.to_dict()))
    rebuilt = Histogram.from_dict("lat", data)
    assert rebuilt == histogram
    assert rebuilt.mean == histogram.mean
    assert rebuilt.percentile(0.99) == histogram.percentile(0.99)
    assert list(rebuilt.buckets()) == list(histogram.buckets())


def test_runstats_round_trip_is_exact():
    stats = small_run()
    assert stats.histograms, "test run should populate histograms"
    data = json.loads(json.dumps(stats.to_dict()))
    rebuilt = RunStats.from_dict(data)
    assert rebuilt == stats            # dataclass equality, all fields
    assert rebuilt.total_energy == stats.total_energy


# ---------------------------------------------------------------------------
# key construction
# ---------------------------------------------------------------------------

def _perturb(value):
    """A different-but-valid value for any config field."""
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        # doubling keeps the size-multiple invariants valid
        return value * 2 if value else 1
    if isinstance(value, float):
        return value * 2 + 1
    raise TypeError(f"unhandled field type {type(value)!r}")


def test_key_changes_when_any_config_field_changes():
    config = GPUConfig.tiny()
    base = run_key(config, "BFS", 0.5, 2018)
    for field in dataclasses.fields(config):
        old = getattr(config, field.name)
        changed = config.with_changes(**{field.name: _perturb(old)})
        assert run_key(changed, "BFS", 0.5, 2018) != base, field.name


def test_key_changes_with_workload_scale_seed_and_version(monkeypatch):
    config = GPUConfig.tiny()
    base = run_key(config, "BFS", 0.5, 2018)
    assert run_key(config, "STN", 0.5, 2018) != base
    assert run_key(config, "BFS", 0.4, 2018) != base
    assert run_key(config, "BFS", 0.5, 2019) != base
    monkeypatch.setattr(repro, "__version__",
                        repro.__version__ + "+dev")
    assert run_key(config, "BFS", 0.5, 2018) != base


# ---------------------------------------------------------------------------
# the results DB as the store
# ---------------------------------------------------------------------------

def tiny_runner(db: str) -> ExperimentRunner:
    return ExperimentRunner(preset="tiny", scale=0.3, seed=7, db=db)


def damage_histograms(db: str, payload: str) -> None:
    """Overwrite every stored histogram payload of every run."""
    with sqlite3.connect(db) as conn:
        damaged = conn.execute(
            "UPDATE stats SET payload = ? WHERE kind = 'histogram'",
            (payload,)).rowcount
    assert damaged


def test_cache_hit_returns_identical_stats(tmp_path):
    db = str(tmp_path / "repro.db")
    cold = tiny_runner(db).run("BFS", Protocol.GTSC, Consistency.RC)
    runner = tiny_runner(db)
    warm = runner.run("BFS", Protocol.GTSC, Consistency.RC)
    assert warm == cold and warm is not cold   # read back from the db
    assert runner.simulations_run == 0
    [row] = runner.results_db.runs()
    assert row["source"] == "runner-cache"


def test_missing_directory_is_a_miss_not_an_error(tmp_path):
    runner = tiny_runner(str(tmp_path / "never-created" / "repro.db"))
    runner.run("BFS", Protocol.GTSC, Consistency.RC)
    assert runner.simulations_run == 1


def test_runner_reuses_disk_cache_across_instances(tmp_path):
    db = str(tmp_path / "repro.db")
    first = tiny_runner(db)
    cold = first.run("BFS", Protocol.GTSC, Consistency.RC)
    assert first.simulations_run == 1

    second = tiny_runner(db)
    warm = second.run("BFS", Protocol.GTSC, Consistency.RC)
    assert second.simulations_run == 0      # zero simulations on hit
    assert warm == cold


def test_warm_sweep_performs_zero_simulations(tmp_path):
    from repro.harness.sweeps import sweep
    db = str(tmp_path / "repro.db")

    def run_sweep(runner):
        return sweep(runner, workloads=["BFS"], parameter="lease",
                     values=[8, 12], protocol=Protocol.GTSC,
                     consistency=Consistency.RC)

    first = tiny_runner(db)
    cold = run_sweep(first)
    assert first.simulations_run == 2

    second = tiny_runner(db)
    warm = run_sweep(second)
    assert second.simulations_run == 0
    assert warm.data == cold.data


def test_corrupt_entry_causes_resimulation(tmp_path):
    db = str(tmp_path / "repro.db")
    first = tiny_runner(db)
    cold = first.run("BFS", Protocol.GTSC, Consistency.RC)
    damage_histograms(db, "{not json at all")

    second = tiny_runner(db)
    key = run_key(second.base_config(Protocol.GTSC, Consistency.RC),
                  "BFS", 0.3, 7)
    with pytest.warns(RuntimeWarning,
                      match=rf"results-db read failed for {key[:12]}"):
        again = second.run("BFS", Protocol.GTSC, Consistency.RC)
    assert second.simulations_run == 1      # a miss: re-simulated
    assert again == cold

    # ... and the fresh result repaired the row
    third = tiny_runner(db)
    assert third.run("BFS", Protocol.GTSC, Consistency.RC) == cold
    assert third.simulations_run == 0


def test_cacheless_runner_still_memoises_in_memory():
    runner = ExperimentRunner(preset="tiny", scale=0.3, seed=7)
    first = runner.run("BFS", Protocol.GTSC, Consistency.RC)
    second = runner.run("BFS", Protocol.GTSC, Consistency.RC)
    assert first is second
    assert runner.simulations_run == 1


#: three spellings of the G-TSC-RC default configuration
DEFAULT_SPELLINGS = [{}, {"visibility": VisibilityPolicy.DELAY},
                     {"lease_policy": LeasePolicy.FIXED}]


def test_spellings_of_one_config_share_one_simulation():
    runner = ExperimentRunner(preset="tiny", scale=0.3, seed=7)
    results = [runner.run("BFS", Protocol.GTSC, Consistency.RC, **spelling)
               for spelling in DEFAULT_SPELLINGS]
    assert runner.simulations_run == 1
    assert results[0] is results[1] is results[2]


def test_clearing_the_memo_forgets_every_spelling():
    runner = ExperimentRunner(preset="tiny", scale=0.3, seed=7)
    runner.run("BFS", Protocol.GTSC, Consistency.RC)
    for done, spelling in enumerate(DEFAULT_SPELLINGS, start=2):
        runner._cache.clear()
        runner.run("BFS", Protocol.GTSC, Consistency.RC, **spelling)
        assert runner.simulations_run == done


def test_truncated_entry_warns_too(tmp_path):
    db = str(tmp_path / "repro.db")
    tiny_runner(db).run("BFS", Protocol.GTSC, Consistency.RC)
    # valid JSON, not a histogram
    damage_histograms(db, '{"cycles": 5}')
    runner = tiny_runner(db)
    with pytest.warns(RuntimeWarning, match="results-db read failed"):
        runner.run("BFS", Protocol.GTSC, Consistency.RC)
    assert runner.simulations_run == 1


def test_ordinary_miss_does_not_warn(tmp_path, recwarn):
    runner = tiny_runner(str(tmp_path / "repro.db"))
    runner.run("BFS", Protocol.GTSC, Consistency.RC)
    assert runner.simulations_run == 1
    assert not [w for w in recwarn.list
                if issubclass(w.category, RuntimeWarning)]
