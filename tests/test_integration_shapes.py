"""The paper's qualitative results, checked at the report's defaults.

Every section of the report (``repro.harness.report.EXPECTATIONS``)
carries its shape targets as checks: who wins, in which direction, on
which benchmark group.  This module evaluates each check on the runner
``repro report --no-db`` builds, so the report's verdict lines and
these tests are one set of thresholds, and it requires EXPERIMENTS.md
to be that report.  The paper's claims also have tests of their own
name, each evaluating its section's checks.  Running the real
experiment harness, it doubles as end-to-end coverage of the figure
pipeline.
"""

from pathlib import Path

import pytest

from repro.cli import make_parser
from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.harness import experiments as exp
from repro.harness.report import EXPECTATIONS, build_report
from repro.harness.runner import ExperimentRunner
from repro.workloads import build_workload

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

# every check by a short id, "<section>-<n>" for the n-th check of a
# section; a failing case prints its verdict line, so the id will do
CHECKS = {f"{expectation.experiment_id}-{n}": (expectation, check)
          for expectation in EXPECTATIONS
          for n, check in enumerate(expectation.checks, 1)}


@pytest.fixture(scope="module")
def runner():
    """The runner of ``repro report --no-db``, at the CLI's defaults."""
    args = make_parser().parse_args(["report", "--no-db"])
    return ExperimentRunner(preset=args.preset, scale=args.scale,
                            seed=args.seed)


def assert_holds(runner, check_id, result=None):
    """Check ``check_id`` on ``result``, by default on its section's
    result at ``runner``."""
    expectation, check = CHECKS[check_id]
    if result is None:
        result = expectation.fn(runner)
    assert check.holds(check.measure(result)), check.verdict(result)


@pytest.mark.parametrize("check_id", CHECKS)
def test_shape_target(runner, check_id):
    assert_holds(runner, check_id)


# The paper's claims by name.  Each evaluates its section's checks,
# so its bound is the one the report prints.

def test_gtsc_rc_beats_tc_rc_on_coherent_set(runner):
    """The abstract's headline: G-TSC outperforms TC under RC."""
    assert_holds(runner, "fig12-1")


def test_gtsc_sc_beats_tc_rc_on_coherent_set(runner):
    """Even G-TSC under SC outperforms TC under RC (paper: +26%)."""
    assert_holds(runner, "fig12-2")


def test_gtsc_beats_tc_per_benchmark_at_matched_consistency(runner):
    assert_holds(runner, "fig12-4")
    assert_holds(runner, "fig12-5")


def test_sc_rc_gap_much_smaller_under_gtsc(runner):
    """G-TSC barely stalls, so SC costs it little; TC's gap is large."""
    assert_holds(runner, "fig12-6")


def test_compute_bound_benchmarks_are_protocol_insensitive(runner):
    """CCP/HS/KM hide memory stalls behind compute (paper §VI-B)."""
    assert_holds(runner, "fig12-7")


def test_gtsc_overhead_vs_noncoherent_l1_is_moderate(runner):
    """Paper: ~11% overhead vs the non-coherent GPU (second group)."""
    assert_holds(runner, "fig12-8")


def test_gtsc_reduces_traffic_vs_tc(runner):
    assert_holds(runner, "fig15-1")


def test_gtsc_stalls_less_than_tc(runner):
    assert_holds(runner, "fig13-1")


def test_gtsc_lease_insensitive_in_paper_range(runner):
    """Fig. 14: flat across leases 8-20 (logical time has no physical
    meaning, so behaviour is lease-scale-invariant)."""
    assert_holds(runner, "fig14-1")


def test_tc_is_lease_sensitive(runner):
    """The §II-D3 contrast: a bad physical lease costs TC real time.
    The report sweeps leases 25-800; three leases around the best one
    already show it."""
    result = exp.ablation_tc_lease(runner, leases=[25, 100, 600],
                                   workloads=["DLP", "STN"])
    assert_holds(runner, "ablation-tc-lease-1", result)


def test_gtsc_saves_energy_vs_tc(runner):
    assert_holds(runner, "fig16-1")


def test_expiration_misses_drop_for_read_mostly(runner):
    assert_holds(runner, "expiration-1")


def test_visibility_options_perform_similarly(runner):
    """§V-A: option 1 (delay) is essentially free — the basis of the
    paper's decision not to pay for old-copy hardware."""
    assert_holds(runner, "ablation-visibility-1")
    assert_holds(runner, "ablation-visibility-2")


def test_forward_all_increases_request_count(runner):
    """§V-B: forwarding all requests raises traffic (paper: 12-35%)."""
    assert_holds(runner, "ablation-combining-1")


def test_headline_directions(runner):
    """Every headline claim holds in sign."""
    assert_holds(runner, "headline-1")


def test_experiments_md_is_the_report(runner):
    """EXPERIMENTS.md is what ``repro report --no-db`` writes; after a
    change that moves the report, regenerate it with that command."""
    assert (build_report(runner) + "\n"
            == EXPERIMENTS_MD.read_text(encoding="utf-8"))


def run_paper_preset(kernel, protocol):
    config = GPUConfig.paper(protocol=protocol, consistency=Consistency.RC)
    return GPU(config, record_accesses=False).run(kernel)


def test_paper_preset_headline_direction():
    """At the paper's 16-SM / 48-warp / 8-bank machine (§VI-A), not
    just the scaled-down preset, G-TSC-RC beats TC-RC and ships fewer
    NoC bytes on BH, DLP and STN."""
    for name in ("BH", "DLP", "STN"):
        kernel = build_workload(name, scale=1.5, seed=2018)
        tc = run_paper_preset(kernel, Protocol.TC)
        gtsc = run_paper_preset(kernel, Protocol.GTSC)
        assert gtsc.noc_bytes < tc.noc_bytes, name
        assert tc.cycles / gtsc.cycles > 1.0, name
