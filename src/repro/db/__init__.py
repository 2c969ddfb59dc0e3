"""Queryable experiment results database with provenance.

The observability layer for *results*: every finished simulation —
whether it ran through an :class:`~repro.harness.runner.ExperimentRunner`,
a :class:`~repro.harness.parallel.ParallelRunner` worker, or a
``repro.serve`` fleet worker — lands as a row keyed by the harness
run key, stamped with git commit, config hash, host and wall time.
The same row answers a repeat run of the point: runners and the serve
scheduler read it back instead of simulating.  Reports and paper-figure
tables become cheap queries (:mod:`repro.db.query`,
:mod:`repro.db.report`) instead of re-simulations.
"""

from repro.db.provenance import config_hash, git_commit, host
from repro.db.report import render_report, write_report
from repro.db.store import ResultsDB

__all__ = [
    "ResultsDB",
    "config_hash",
    "git_commit",
    "host",
    "render_report",
    "write_report",
]
