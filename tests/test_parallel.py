"""Tests for the process-pool experiment runner.

The contract is strict: a parallel batch must produce *bit-identical*
RunStats to the sequential path — same counters, same energy, same
histogram buckets — because the figures diff against golden numbers.
"""

import pytest

from repro.config import (Consistency, LeasePolicy, Protocol,
                          VisibilityPolicy)
from repro.harness.parallel import ParallelRunner, _simulate_point
from repro.harness.runner import ExperimentRunner, point_of
from repro.stats.collector import RunStats

WORKLOADS = ["BFS", "STN"]


def make_sequential(**kwargs):
    return ExperimentRunner(preset="tiny", scale=0.3, seed=7, **kwargs)


def make_parallel(jobs, **kwargs):
    return ParallelRunner(jobs=jobs, preset="tiny", scale=0.3, seed=7,
                          **kwargs)


def test_worker_payload_rebuilds_to_runstats():
    point = point_of("BFS", Protocol.GTSC, Consistency.RC)
    payload = _simulate_point("tiny", 0.3, 7, (), point)
    stats = RunStats.from_dict(payload)
    assert stats.cycles > 0
    assert stats.counter("warps_retired") > 0


def test_parallel_matrix_is_bit_identical_to_sequential():
    sequential = make_sequential()
    parallel = make_parallel(jobs=2)
    for workload in WORKLOADS:
        expected = sequential.matrix(workload)
        actual = parallel.matrix(workload)
        assert set(actual) == set(expected)
        for bar in expected:
            # dataclass equality covers cycles, every counter, energy
            # and full histogram contents
            assert actual[bar] == expected[bar], (workload, bar)


def test_jobs_1_runs_in_process():
    runner = make_parallel(jobs=1)
    stats = runner.run("BFS", Protocol.GTSC, Consistency.RC)
    reference = make_sequential().run("BFS", Protocol.GTSC,
                                      Consistency.RC)
    assert stats == reference
    assert runner.simulations_run == 1


def test_prefetch_counts_simulations_and_fills_memo():
    runner = make_parallel(jobs=2)
    points = ExperimentRunner.matrix_points(WORKLOADS)
    runner.prefetch(points)
    assert runner.simulations_run == len(points)
    # every point is now a memo hit: no further simulations
    runner.prefetch(points)
    for workload in WORKLOADS:
        runner.matrix(workload)
    assert runner.simulations_run == len(points)


def test_batch_simulates_each_run_key_once():
    runner = make_parallel(jobs=2)
    plain = point_of("BFS", Protocol.GTSC, Consistency.RC)
    spelled = point_of("BFS", Protocol.GTSC, Consistency.RC,
                       visibility=VisibilityPolicy.DELAY)
    runner.prefetch([plain, spelled])
    assert runner.simulations_run == 1
    assert runner.run("BFS", Protocol.GTSC, Consistency.RC) == \
        runner.run("BFS", Protocol.GTSC, Consistency.RC,
                   visibility=VisibilityPolicy.DELAY)
    assert runner.simulations_run == 1


def test_pool_batch_dedupes_spellings_and_resolved_run_keys():
    runner = make_parallel(jobs=2)
    runner.run("STN", Protocol.TC, Consistency.RC)
    # every override below spells a default
    points = [
        point_of("BFS", Protocol.GTSC, Consistency.RC),
        point_of("BFS", Protocol.GTSC, Consistency.RC,
                 lease_policy=LeasePolicy.FIXED),
        point_of("STN", Protocol.TC, Consistency.RC, tc_lease=300),
        point_of("STN", Protocol.GTSC, Consistency.RC),
    ]
    assert runner._missing(points) == [points[0], points[3]]
    runner.prefetch(points)
    assert runner.simulations_run == 3
    sequential = make_sequential()
    for workload, protocol, consistency, overrides in points:
        assert runner.run(workload, protocol, consistency,
                          **dict(overrides)) == \
            sequential.run(workload, protocol, consistency)
    assert runner.simulations_run == 3


def test_parallel_runner_shares_the_disk_cache(tmp_path):
    cache_dir = str(tmp_path / "runcache")
    warmup = make_sequential(cache_dir=cache_dir)
    expected = warmup.matrix("BFS")
    assert warmup.simulations_run == 4

    warm = make_parallel(jobs=2, cache_dir=cache_dir)
    actual = warm.matrix("BFS")
    assert warm.simulations_run == 0        # all four came from disk
    for bar in expected:
        assert actual[bar] == expected[bar]


def test_invalid_jobs_rejected():
    with pytest.raises(ValueError):
        make_parallel(jobs=0)


def test_sweep_through_parallel_runner_matches_sequential():
    from repro.harness.sweeps import sweep

    def run_sweep(runner):
        return sweep(runner, workloads=["BFS"], parameter="lease",
                     values=[8, 16], protocol=Protocol.GTSC,
                     consistency=Consistency.RC)

    expected = run_sweep(make_sequential())
    actual = run_sweep(make_parallel(jobs=2))
    assert actual.data == expected.data


def test_jobs_clamped_to_available_cores():
    import os

    cores = os.cpu_count() or 1
    with pytest.warns(RuntimeWarning, match="clamping"):
        runner = make_parallel(jobs=cores + 3)
    assert runner.jobs == cores


def test_jobs_within_cores_does_not_warn(recwarn):
    make_parallel(jobs=1)
    assert not [w for w in recwarn.list
                if issubclass(w.category, RuntimeWarning)]


def test_clamped_runner_still_matches_sequential():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        clamped = make_parallel(jobs=64)
    expected = make_sequential().run("BFS", Protocol.GTSC,
                                     Consistency.RC)
    assert clamped.run("BFS", Protocol.GTSC,
                       Consistency.RC) == expected


def test_progress_heartbeats_go_to_stderr(capsys):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        runner = make_parallel(jobs=2, progress=True)
    runner.prefetch(ExperimentRunner.matrix_points(["BFS"]))
    err = capsys.readouterr().err
    assert "[repro]" in err
    assert "BFS gtsc-rc" in err


def test_progress_off_is_silent(capsys):
    runner = make_sequential(progress=False)
    runner.prefetch(ExperimentRunner.matrix_points(["BFS"]))
    assert capsys.readouterr().err == ""


def test_default_jobs_is_cpu_count_without_warning(recwarn):
    import os

    runner = ParallelRunner(preset="tiny", scale=0.3, seed=7)
    assert runner.jobs == (os.cpu_count() or 1)
    # defaulting to the machine must not trip the clamp warning
    assert not [w for w in recwarn.list
                if issubclass(w.category, RuntimeWarning)]


def test_workers_share_the_trace_cache_dir(tmp_path):
    cache_dir = str(tmp_path / "runcache")
    runner = make_parallel(jobs=1, cache_dir=cache_dir)
    runner.run("BFS", Protocol.GTSC, Consistency.RC)
    import os

    traces = os.path.join(cache_dir, "traces")
    assert runner.trace_cache_dir == traces
    assert os.listdir(traces)             # compiled trace persisted
