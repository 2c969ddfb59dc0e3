"""Tests for the observability-facing CLI verbs: trace and profile."""

import json
import re

import pytest

from repro.cli import main
from repro.obs import Tracer, validate_chrome_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_writes_a_valid_chrome_trace(tmp_path, capsys):
    out = str(tmp_path / "bfs.trace.json")
    code, stdout, _ = run_cli(capsys, "trace", "BFS", "--out", out)
    assert code == 0
    with open(out) as handle:
        trace = json.load(handle)
    assert validate_chrome_trace(trace) > 0
    assert "0 violations" in stdout
    assert "verified against timestamp order" in stdout


def test_trace_optional_jsonl_outputs(tmp_path, capsys):
    out = str(tmp_path / "t.json")
    jsonl = str(tmp_path / "t.jsonl")
    audit = str(tmp_path / "a.jsonl")
    code, stdout, _ = run_cli(capsys, "trace", "STN", "--out", out,
                              "--jsonl", jsonl, "--audit-jsonl", audit)
    assert code == 0
    events = Tracer.read_jsonl(jsonl)
    assert events
    with open(audit) as handle:
        records = [json.loads(line) for line in handle]
    assert all("wts" in rec for rec in records)


def test_trace_supports_other_protocols(tmp_path, capsys):
    out = str(tmp_path / "mesi.trace.json")
    code, stdout, _ = run_cli(capsys, "trace", "STN", "--out", out,
                              "--protocol", "mesi")
    assert code == 0
    # no G-TSC audit records under MESI, and no timestamp-log check
    assert "0 violations" in stdout
    assert "verified against timestamp order" not in stdout


def test_trace_covers_a_cluster_point(tmp_path, capsys):
    """A 2-GPU trace: the one ``Observability.attach`` hands the tracer
    to the interlink and binds the audit log and the metrics."""
    out = str(tmp_path / "pcx-2gpu.trace.json")
    code, stdout, _ = run_cli(capsys, "trace", "PCX", "--set", "n_gpus=2",
                              "--out", out)
    assert code == 0
    with open(out) as handle:
        trace = json.load(handle)
    assert validate_chrome_trace(trace) > 0
    assert any(event["ph"] == "X" and event.get("cat") == "interlink"
               for event in trace["traceEvents"])
    replayed = re.search(r"audit: +(\d+) transition\(s\) replayed, "
                         r"0 violations", stdout)
    assert replayed and int(replayed.group(1)) > 0
    samples = re.search(r"metrics: (\d+) sample", stdout)
    assert samples and int(samples.group(1)) > 0


def test_trace_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        main(["trace", "NOPE"])


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def test_profile_prints_matrix_and_heartbeats(tmp_path, capsys):
    code, stdout, stderr = run_cli(capsys, "profile", "BFS",
                                   "--preset", "tiny",
                                   "--scale", "0.3",
                                   "--db", str(tmp_path / "repro.db"))
    assert code == 0
    for label in ("BFS tc-sc", "BFS tc-rc", "BFS gtsc-sc",
                  "BFS gtsc-rc"):
        assert label in stdout
    assert "4 point(s)" in stdout
    assert "4 simulated" in stdout
    # heartbeats are forced on and go to stderr
    assert "[repro]" in stderr
    assert "4/4" in stderr


def test_profile_reports_cache_reuse(tmp_path, capsys):
    db = str(tmp_path / "repro.db")
    run_cli(capsys, "profile", "BFS", "--preset", "tiny",
            "--scale", "0.3", "--db", db)
    code, stdout, _ = run_cli(capsys, "profile", "BFS",
                              "--preset", "tiny", "--scale", "0.3",
                              "--db", db)
    assert code == 0
    assert "0 simulated" in stdout
    assert "4 from cache" in stdout


def test_profile_rejects_unknown_workload(capsys):
    code, _, err = run_cli(capsys, "profile", "XXX", "--no-db")
    assert code == 2
    assert "unknown workloads" in err
