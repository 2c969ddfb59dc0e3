"""Shared fixtures for the figure-regeneration benchmarks.

Each ``bench_*`` file regenerates one table or figure of the paper.
Results are printed and also written to ``results/<experiment>.txt``
so a ``pytest benchmarks/ --benchmark-only`` run leaves the full set
of regenerated tables on disk.

The benchmarks use the ``small`` machine preset at workload scale 0.4:
large enough for every protocol effect the paper discusses to appear,
small enough that the whole suite completes in a couple of minutes of
pure-Python simulation.  Scale up with ``REPRO_BENCH_SCALE`` /
``REPRO_BENCH_PRESET`` environment variables for paper-sized runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.tables import ExperimentResult, format_result

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

BENCH_PRESET = os.environ.get("REPRO_BENCH_PRESET", "small")
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2018"))

# opt-in accelerator: REPRO_BENCH_JOBS=N batches independent points
# over N processes.  Off by default, and no results database is read,
# so timing benchmarks measure the simulator.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """One memoised runner for the whole benchmark session.

    Sharing baselines across figures mirrors the paper's methodology
    (each benchmark is simulated once per configuration, and every
    figure is computed from that one set of runs).
    """
    if BENCH_JOBS > 1:
        from repro.harness.parallel import ParallelRunner
        return ParallelRunner(jobs=BENCH_JOBS, preset=BENCH_PRESET,
                              scale=BENCH_SCALE, seed=BENCH_SEED)
    return ExperimentRunner(preset=BENCH_PRESET, scale=BENCH_SCALE,
                            seed=BENCH_SEED)


@pytest.fixture(scope="session")
def emit():
    """Print a result and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(result: ExperimentResult) -> ExperimentResult:
        text = format_result(result)
        print()
        print(text)
        path = RESULTS_DIR / f"{result.experiment_id}.txt"
        path.write_text(text + "\n")
        return result

    return _emit
