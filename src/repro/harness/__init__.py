"""Experiment harness: regenerate every table and figure of the paper."""

from repro.harness.runner import ExperimentRunner, point_of
from repro.harness.parallel import ParallelRunner
from repro.harness.cache import run_key
from repro.harness.tables import ExperimentResult, format_result
from repro.harness.charts import render_chart
from repro.harness.sweeps import SweepSeries, sweep
from repro.harness import experiments

__all__ = ["ExperimentRunner", "ParallelRunner",
           "ExperimentResult", "SweepSeries", "format_result",
           "point_of", "render_chart", "run_key", "sweep",
           "experiments"]
