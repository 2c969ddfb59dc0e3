#!/usr/bin/env python
"""Compare pytest-benchmark JSON results against baseline results.

Usage:
    python scripts/check_bench_regression.py \
        --result RESULT.json [RESULT.json ...] \
        --baseline BASELINE.json [BASELINE.json ...]

CI produces both sides on one runner in four rounds of one run each,
the base first in odd rounds and the change first in even rounds: the
baseline files from the base commit's copies of the benchmark files,
checked out in a git worktree, and the result files from the change,
so the two are comparable.  Each side's time for a benchmark is its
best (min) time over all of that side's files: on a shared host one
run per side reports noise as a regression, and the minimum over
several interleaved runs, with the order swapped each round as
``bench/ab.py`` does for the end-to-end metrics, keeps a fast or slow
phase of the host from always landing on the same side.  Before round
one each side runs once more and writes no file, so whatever favours
the first run of the loop reaches neither side's minimum.

Exits non-zero when any benchmark's best time regressed by more
than its tolerance over the baseline's best time.  Tolerances are
per-benchmark (``TOLERANCES`` below): long, simulation-dominated
benchmarks have stable minima and get a tight bound, while
wall-clock-sensitive ones (the serve benchmarks cross a real TCP
socket) get slack proportional to their observed jitter.  Names not
listed get 30%.

Minimum-of-rounds is compared rather than the mean because it is the
most noise-robust statistic a short benchmark produces; the
tolerances absorb the run-to-run noise that remains between two runs
on one host.  Benchmarks present in only one side are reported but do
not fail the check, so a change may add or retire a benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable

#: Per-benchmark regression tolerance (fraction over baseline min).
TOLERANCES = {
    # matrix sweep: ~150 ms of pure simulation, the most stable min in
    # the suite and the headline number perf PRs are judged on
    "test_matrix_sweep_throughput": 0.20,
    # single-simulation points: one tiny-preset run per round
    "test_simulation_throughput[Protocol.GTSC]": 0.25,
    "test_simulation_throughput[Protocol.TC]": 0.25,
    "test_simulation_throughput[Protocol.DISABLED]": 0.25,
    # engine microbenchmarks: short but allocation-free and steady
    "test_event_engine_throughput": 0.25,
    "test_engine_schedule_cancel_churn": 0.25,
    # packed-state microbenchmarks: pure-Python inner loops over
    # preallocated arrays, very steady minima
    "test_scheduler_ready_mask": 0.25,
    "test_l1_packed_probe": 0.25,
    # multi-GPU cluster points: same simulation-dominated profile as
    # the single-GPU points above, just over the interlinked machine
    "test_multigpu_simulation_throughput[2gpu]": 0.25,
    "test_multigpu_simulation_throughput[4gpu]": 0.25,
    "test_multigpu_interlink_traffic": 0.25,
    # serve path: crosses a real TCP socket, scheduler-sensitive
    "test_submit_latency_cold": 0.50,
    "test_submit_latency_cached": 0.60,
    "test_submit_latency_coalesced": 0.50,
    # fleet load benchmarks: whole-fleet wall clock across worker
    # *subprocesses* — process scheduling and core count dominate the
    # jitter, so these get the loosest bounds in the suite
    "test_fleet_cold_throughput[1w]": 0.60,
    "test_fleet_cold_throughput[2w]": 0.60,
    "test_fleet_cold_throughput[4w]": 0.60,
    "test_fleet_zipf_load": 0.60,
}


def load_mins(paths: Iterable[Path]) -> dict[str, float]:
    """Each benchmark's best (min) time over every file in ``paths``."""
    mins: dict[str, float] = {}
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        for bench in data["benchmarks"]:
            name = bench["name"]
            best = bench["stats"]["min"]
            if name not in mins or best < mins[name]:
                mins[name] = best
    return mins


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog=Path(argv[0]).name,
        description="Fail when a benchmark's best time regressed past "
                    "its tolerance over the baseline's best time.")
    parser.add_argument("--result", nargs="+", type=Path, required=True,
                        help="the change's pytest-benchmark JSON files")
    parser.add_argument("--baseline", nargs="+", type=Path, required=True,
                        help="the base commit's pytest-benchmark JSON "
                             "files")
    args = parser.parse_args(argv[1:])
    result = load_mins(args.result)
    baseline = load_mins(args.baseline)

    failed = []
    for name in sorted(set(result) | set(baseline)):
        new = result.get(name)
        old = baseline.get(name)
        if new is None or old is None:
            side = "baseline" if new is None else "result"
            print(f"  SKIP {name}: only in {side}")
            continue
        tolerance = TOLERANCES.get(name, 0.30)
        ratio = new / old
        status = "ok"
        if ratio > 1.0 + tolerance:
            status = "REGRESSED"
            failed.append(name)
        print(f"  {status:>9} {name}: {old * 1e3:.2f} ms -> "
              f"{new * 1e3:.2f} ms ({ratio:.2f}x, "
              f"tol {tolerance:.0%})")

    if failed:
        print(f"\n{len(failed)} benchmark(s) regressed past their "
              f"tolerance: {', '.join(failed)}")
        return 1
    print("\nAll shared benchmarks within tolerance of the baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
