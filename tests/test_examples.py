"""Smoke tests: every example script must run and produce its story.

Run as subprocesses so the examples are exercised exactly as a user
would run them: a fresh interpreter started in an empty directory,
with the checkout's ``src`` as its import path, argv handling and
exit codes.  The examples and the litmus shapes are the outside users
of the hand-written kernel API, so they run with the rest of tier-1.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"

#: every script in examples/, each run by one test below
RUN_HERE = (
    "cta_reduction.py", "fuzz_coherence.py", "iterative_solver.py",
    "lease_sweep.py", "litmus_tests.py", "protocol_shootout.py",
    "quickstart.py", "timestamp_inspector.py",
)


def run_example(cwd, name, *args, timeout=180):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout, cwd=cwd,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_examples_directory_has_at_least_three_scripts():
    scripts = list(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 3


def test_every_example_is_run_here():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == \
        sorted(RUN_HERE)


def test_quickstart(tmp_path):
    out = run_example(tmp_path, "quickstart.py")
    assert "cycles:" in out
    assert "consistent with timestamp order" in out


def test_protocol_shootout(tmp_path):
    out = run_example(tmp_path, "protocol_shootout.py", "STN", "0.3")
    assert "G-TSC-RC" in out
    assert "baseline" in out


def test_litmus_tests(tmp_path):
    out = run_example(tmp_path, "litmus_tests.py")
    assert "message passing" in out
    assert "store buffering" in out


def test_lease_sweep(tmp_path):
    out = run_example(tmp_path, "lease_sweep.py", "DLP", "0.3")
    assert "logical lease sweep" in out
    assert "physical lease sweep" in out


def test_timestamp_inspector(tmp_path):
    out = run_example(tmp_path, "timestamp_inspector.py")
    assert "global memory order" in out
    assert "LD X" in out and "ST Y" in out


def test_fuzz_coherence(tmp_path):
    out = run_example(tmp_path, "fuzz_coherence.py", "6")
    assert "no violations" in out


def test_iterative_solver(tmp_path):
    out = run_example(tmp_path, "iterative_solver.py", "3")
    assert "timestamp epochs consumed: 3" in out


def test_cta_reduction(tmp_path):
    out = run_example(tmp_path, "cta_reduction.py")
    assert "barrier releases" in out
    assert "consistent with timestamp order" in out
