"""Tests for the experiment harness (runner, formatters, experiments).

The experiments themselves are exercised at a very small scale so the
whole module stays fast; the shape assertions on their outputs live in
test_integration_shapes.py.
"""

from collections import Counter

import pytest

from repro.config import Consistency, Protocol
from repro.harness.report import build_report
from repro.harness.runner import ExperimentRunner, point_of
from repro.harness.tables import ExperimentResult, format_result, geomean
from repro.harness import experiments as exp


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(preset="tiny", scale=0.15, seed=3)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def test_runner_memoises_identical_points(runner):
    first = runner.run("HS", Protocol.GTSC, Consistency.RC)
    second = runner.run("HS", Protocol.GTSC, Consistency.RC)
    assert first is second


def test_runner_distinguishes_overrides(runner):
    a = runner.run("HS", Protocol.GTSC, Consistency.RC, lease=8)
    b = runner.run("HS", Protocol.GTSC, Consistency.RC, lease=20)
    assert a is not b


def test_runner_rejects_bad_preset():
    with pytest.raises(ValueError):
        ExperimentRunner(preset="huge")


def test_base_config_merges_overrides():
    runner = ExperimentRunner(preset="tiny", lease=12)
    config = runner.base_config(Protocol.GTSC, Consistency.SC)
    assert config.lease == 12
    assert config.consistency is Consistency.SC
    config2 = runner.base_config(Protocol.GTSC, Consistency.SC, lease=9)
    assert config2.lease == 9


# ---------------------------------------------------------------------------
# result container / formatting
# ---------------------------------------------------------------------------

def test_result_column_and_row_access():
    result = ExperimentResult("x", "t", ["name", "v"],
                              rows=[["a", 1], ["b", 2]])
    assert result.column("v") == [1, 2]
    assert result.row("b") == ["b", 2]
    with pytest.raises(KeyError):
        result.row("c")


def test_format_result_renders_all_rows():
    result = ExperimentResult("fig0", "demo", ["name", "val"],
                              rows=[["a", 1.25], ["b", 3]],
                              summary={"agg": 0.5}, notes="hello")
    text = format_result(result)
    assert "fig0" in text and "demo" in text
    assert "1.250" in text and "3" in text
    assert "agg: 0.500" in text
    assert "hello" in text


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


# ---------------------------------------------------------------------------
# experiments produce well-formed outputs
# ---------------------------------------------------------------------------

def test_table2_has_all_benchmarks(runner):
    result = exp.table2(runner)
    assert len(result.rows) == 12
    assert all(row[2] > 0 and row[3] > 0 for row in result.rows)


def test_fig12_structure(runner):
    result = exp.fig12(runner)
    assert len(result.rows) == 12
    # coherent rows carry no W/L1 bar
    for row in result.rows:
        if row[1] == "coherent":
            assert row[2] == "-"
        else:
            assert isinstance(row[2], float)
    assert "G-TSC-RC over TC-RC (coherent, geomean)" in result.summary


def test_fig13_normalised_stalls_positive(runner):
    result = exp.fig13(runner)
    for row in result.rows:
        for cell in row[2:]:
            assert cell >= 0


def test_fig14_rows_cover_lease_range(runner):
    result = exp.fig14(runner, leases=[8, 20])
    assert result.headers[1:] == ["lease=8", "lease=20"]
    assert len(result.rows) == 6


def test_fig15_and_16_ratios_positive(runner):
    for fn in (exp.fig15, exp.fig16):
        result = fn(runner)
        for row in result.rows:
            assert all(isinstance(c, float) and c > 0 for c in row[2:])


def test_fig17_l1_energy_nonnegative(runner):
    result = exp.fig17(runner)
    for row in result.rows:
        assert all(c >= 0 for c in row[2:])
    # every protocol in the table has an L1 that does work, so every
    # printed cell must read above zero at the table's precision
    body = format_result(result).splitlines()[4:4 + len(result.rows)]
    for line in body:
        assert all(float(cell) > 0 for cell in line.split()[2:]), line


def test_expiration_reports_reduction(runner):
    result = exp.expiration(runner)
    assert len(result.rows) == 6
    assert "mean expiration-miss reduction" in result.summary


def test_headline_has_three_claims(runner):
    result = exp.headline(runner)
    assert len(result.rows) == 3
    assert [row[1] for row in result.rows] == [0.38, 0.26, 0.20]


def test_ablations_run(runner):
    for fn in (exp.ablation_visibility, exp.ablation_combining,
               exp.ablation_inclusion):
        result = fn(runner)
        assert result.rows
    lease_result = exp.ablation_tc_lease(runner, leases=[50, 200],
                                         workloads=["DLP"])
    assert lease_result.rows[0][0] == "DLP"


# ---------------------------------------------------------------------------
# what the report asks of its runner
# ---------------------------------------------------------------------------

class RecordingRunner(ExperimentRunner):
    """Logs every simulated run_key (and whether a prefetch batch ran
    it), every point a batch names, and every point read outside one."""

    def __init__(self, **options):
        super().__init__(**options)
        self.simulated = []
        self.prefetched = set()
        self.read = set()
        self.batches = 0          # prefetch calls in progress

    def prefetch(self, points):
        points = list(points)
        self.prefetched.update(points)
        self.batches += 1
        try:
            super().prefetch(points)
        finally:
            self.batches -= 1

    def run(self, workload, protocol, consistency, **overrides):
        if not self.batches:
            self.read.add(point_of(workload, protocol, consistency,
                                   **overrides))
        return super().run(workload, protocol, consistency, **overrides)

    def _simulate(self, workload, config):
        self.simulated.append((self._disk_key(workload, config),
                               bool(self.batches)))
        return super()._simulate(workload, config)


def test_report_simulates_each_run_key_once_inside_a_batch():
    runner = RecordingRunner(preset="tiny", scale=0.1, seed=5)
    build_report(runner)
    repeats = Counter(key for key, _ in runner.simulated)
    assert [key for key, count in repeats.items() if count > 1] == []
    assert runner.prefetched - runner.read == set()
    assert [key for key, batched in runner.simulated if not batched] == []
    assert runner.simulations_run == len(runner.simulated)
