"""Tests for the command-line interface and the report generator."""

import pytest

from repro.cli import EXPERIMENT_FNS, main, make_parser
from repro.harness.report import EXPECTATIONS, build_report
from repro.harness.runner import ExperimentRunner


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        make_parser().parse_args([])


def test_parser_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        make_parser().parse_args(["simulate", "NOPE"])


def test_parser_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        make_parser().parse_args(["simulate", "BFS", "--protocol",
                                  "moesi-l3"])


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------

def test_list_shows_workloads_and_experiments(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for name in ("BH", "KM", "fig12", "table2", "ablation-tc-lease"):
        assert name in out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_runs_and_prints_summary(capsys):
    code, out, _ = run_cli(capsys, "simulate", "HS", "--preset", "tiny",
                           "--scale", "0.15")
    assert code == 0
    assert "cycles:" in out
    assert "HS" in out


def test_simulate_with_check_verifies_coherence(capsys):
    code, out, _ = run_cli(capsys, "simulate", "STN", "--preset", "tiny",
                           "--scale", "0.15", "--check")
    assert code == 0
    assert "verified against" in out


def test_simulate_other_protocols(capsys):
    for protocol in ("tc", "disabled"):
        code, out, _ = run_cli(capsys, "simulate", "HS", "--preset",
                               "tiny", "--scale", "0.1", "--protocol",
                               protocol)
        assert code == 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_single_experiment(capsys):
    code, out, _ = run_cli(capsys, "run", "fig14", "--preset", "tiny",
                           "--scale", "0.1", "--no-db")
    assert code == 0
    assert "fig14" in out
    assert "lease=8" in out


def test_run_unknown_experiment_fails_cleanly(capsys):
    code, _out, err = run_cli(capsys, "run", "fig99", "--preset", "tiny")
    assert code == 2
    assert "unknown experiments" in err


def test_run_without_names_or_all_fails(capsys):
    code, _out, err = run_cli(capsys, "run", "--preset", "tiny")
    assert code == 2


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_every_expectation_has_a_registered_function():
    assert len(EXPECTATIONS) == len(EXPERIMENT_FNS)
    for expectation in EXPECTATIONS:
        assert expectation.paper_says
        assert expectation.shape_target
        assert EXPERIMENT_FNS[expectation.experiment_id] is expectation.fn


def test_build_report_contains_every_experiment():
    runner = ExperimentRunner(preset="tiny", scale=0.1, seed=5)
    text = build_report(runner)
    for expectation in EXPECTATIONS:
        assert expectation.title in text
    assert "Paper:" in text and "Measured:" in text


def test_report_command_writes_file(tmp_path, capsys):
    target = tmp_path / "report.md"
    code, out, _ = run_cli(capsys, "report", "--output", str(target),
                           "--preset", "tiny", "--scale", "0.1",
                           "--db", str(tmp_path / "repro.db"))
    assert code == 0
    assert target.exists()
    assert "paper vs. measured" in target.read_text()


def test_report_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "report", "--output", "-",
                           "--preset", "tiny", "--scale", "0.1",
                           "--no-db")
    assert code == 0
    assert "# EXPERIMENTS" in out


def test_simulate_json_output(capsys):
    import json
    code, out, _ = run_cli(capsys, "simulate", "HS", "--preset", "tiny",
                           "--scale", "0.1", "--json")
    assert code == 0
    data = json.loads(out)
    # the versioned result envelope shared with the serve protocol
    assert data["v"] == 1 and data["kind"] == "result"
    assert data["spec"]["workload"] == "HS"
    assert data["cached"] is False and data["coalesced"] is False
    assert len(data["key"]) == 64
    stats = data["stats"]
    assert stats["cycles"] > 0
    assert "counters" in stats and "energy_j" in stats
    assert stats["histograms"]["load_latency"]["count"] > 0


def test_simulate_json_key_matches_run_cache(capsys):
    """The envelope key IS the harness run_key: results interchange."""
    import json
    from repro.serve import schema

    code, out, _ = run_cli(capsys, "simulate", "HS", "--preset", "tiny",
                           "--scale", "0.1", "--json")
    assert code == 0
    data = json.loads(out)
    spec = schema.make_spec("HS", preset="tiny", scale=0.1,
                            overrides={"lease": 10})
    assert data["key"] == schema.spec_key(spec)


def test_simulate_set_override_changes_key(capsys):
    import json
    code, out, _ = run_cli(capsys, "simulate", "HS", "--preset", "tiny",
                           "--scale", "0.1", "--json",
                           "--set", "l1_size=2048")
    assert code == 0
    data = json.loads(out)
    assert data["spec"]["overrides"]["l1_size"] == 2048


def test_sweep_command(capsys):
    code, out, _ = run_cli(capsys, "sweep", "lease", "8", "20",
                           "--workload", "HS", "--preset", "tiny",
                           "--scale", "0.1", "--no-db")
    assert code == 0
    assert "lease=8" in out and "lease=20" in out


def test_sweep_rejects_non_integer_values(capsys):
    code, _out, err = run_cli(capsys, "sweep", "lease", "abc",
                              "--workload", "HS", "--preset", "tiny")
    assert code == 2
    assert "integers" in err


def test_sweep_rejects_unknown_metric(capsys):
    code, _out, err = run_cli(capsys, "sweep", "lease", "8",
                              "--workload", "HS", "--preset", "tiny",
                              "--scale", "0.1", "--metric", "vibes",
                              "--no-db")
    assert code == 2


def test_profile_cprofile_prints_hotspots(capsys):
    code, out, _ = run_cli(capsys, "profile", "BFS", "--preset", "tiny",
                           "--scale", "0.3", "--cprofile", "--no-db")
    assert code == 0
    assert "cProfile: BFS gtsc-rc" in out
    assert "cumulative" in out            # pstats sort header
    assert "repro/sim/engine.py" in out
    header = "simulator hot modules by self time"
    assert header in out
    # the L1 hit probe runs inside GTSCL1Controller.load
    assert "repro/core/l1.py" in out.split(header, 1)[1]
    assert "engine hot loop:" in out
    assert "engine_events_fired" in out
