"""The speed gate's merge: each side's best time over all its runs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / \
    "check_bench_regression.py"


def load_script():
    spec = importlib.util.spec_from_file_location("check_bench_regression",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_runs(directory, side, runs):
    """One pytest-benchmark JSON file per run: ``{name: min_seconds}``."""
    paths = []
    for index, mins in enumerate(runs):
        path = directory / f"{side}-{index}.json"
        path.write_text(json.dumps({"benchmarks": [
            {"name": name, "stats": {"min": best}}
            for name, best in mins.items()]}))
        paths.append(path)
    return paths


def gate(script, results, baselines):
    return script.main(["check_bench_regression.py",
                        "--result", *map(str, results),
                        "--baseline", *map(str, baselines)])


def test_each_benchmark_takes_its_minimum_across_a_sides_files(tmp_path):
    script = load_script()
    paths = write_runs(tmp_path, "result", [
        {"a": 1.5, "b": 2.0},
        {"a": 1.0},                 # a benchmark may miss from a run
        {"a": 1.2, "b": 1.8, "c": 4.0},
    ])
    assert script.load_mins(paths) == {"a": 1.0, "b": 1.8, "c": 4.0}


def test_one_noisy_run_per_side_does_not_fail_the_gate(tmp_path, capsys):
    script = load_script()
    # the first pair alone reads 1.5x on "a"; the other runs show it
    # was the host
    results = write_runs(tmp_path, "result", [
        {"a": 1.5}, {"a": 1.01}, {"a": 1.02}])
    baselines = write_runs(tmp_path, "base", [
        {"a": 1.0}, {"a": 1.1}, {"a": 1.3}])
    assert gate(script, results[:1], baselines[:1]) == 1
    capsys.readouterr()
    assert gate(script, results, baselines) == 0
    assert "ok a: 1000.00 ms -> 1010.00 ms (1.01x" in \
        capsys.readouterr().out


def test_a_regression_in_every_run_fails_the_gate(tmp_path, capsys):
    script = load_script()
    results = write_runs(tmp_path, "result", [
        {"test_matrix_sweep_throughput": t} for t in (0.15, 0.14, 0.16)])
    baselines = write_runs(tmp_path, "base", [
        {"test_matrix_sweep_throughput": t} for t in (0.10, 0.11, 0.10)])
    assert gate(script, results, baselines) == 1
    assert "REGRESSED test_matrix_sweep_throughput" in \
        capsys.readouterr().out
