#!/usr/bin/env python
"""End-to-end smoke of the multi-GPU cluster path, suitable for CI.

Runs the ``multigpu`` experiment (a 2-GPU mini-matrix: G-TSC / TC /
MESI at 1 and 2 GPUs) through the real CLI into a fresh results
database, verifies every row carries ``n_gpus`` provenance, checks a
cluster point is bit-reproducible with the database disabled, and
renders the HTML report — which CI uploads as an artifact.

Usage::

    PYTHONPATH=src python scripts/multigpu_smoke.py [OUT_DIR]

``OUT_DIR`` (default ``multigpu-smoke/``) receives ``repro.db`` and
``report.html``.  Exits non-zero with a diagnostic on any failure.
"""

from __future__ import annotations

import json
import sqlite3
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT = Path(sys.argv[1] if len(sys.argv) > 1
           else "multigpu-smoke").resolve()
RUN_ARGS = ["--preset", "tiny", "--scale", "0.2", "--seed", "2018"]


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def cli(*argv: str) -> str:
    run = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=REPO, capture_output=True, text=True, timeout=900)
    if run.returncode != 0:
        fail(f"'{' '.join(argv[:3])}...' exited {run.returncode}:\n"
             f"{run.stdout}\n{run.stderr}")
    return run.stdout


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    db = str(OUT / "repro.db")
    report = str(OUT / "report.html")

    # 1. the mini-matrix: one inter-GPU workload, three protocols,
    #    1 and 2 GPUs, recording rows as it runs
    table = cli("multigpu", "--gpus", "1", "2", "--workload", "PCX",
                *RUN_ARGS, "--db", db)
    if "interlink_KB" not in table:
        fail(f"multigpu table is missing the interlink column:\n{table}")
    print("2-GPU mini-matrix: OK")

    # 2. every row carries machine-shape provenance, and both shapes
    #    actually landed
    with sqlite3.connect(db) as conn:
        counts = dict(conn.execute(
            "SELECT n_gpus, COUNT(*) FROM runs GROUP BY n_gpus"))
    if set(counts) != {1, 2}:
        fail(f"expected rows at 1 and 2 GPUs, got {counts}")
    if any(n is None for n in counts):
        fail(f"rows are missing n_gpus provenance: {counts}")
    print(f"n_gpus provenance ({counts}): OK")

    # 3. a cluster point is bit-reproducible even with the db off
    runs = [json.loads(cli("simulate", "PCX", "--set", "n_gpus=2",
                           *RUN_ARGS, "--no-db", "--json"))
            for _ in range(2)]
    if runs[0] != runs[1]:
        fail("2-GPU simulation is not bit-reproducible")
    stats = runs[0]["stats"]
    if runs[0].get("n_gpus") != 2:
        fail(f"envelope lost the n_gpus stamp: {runs[0].get('n_gpus')}")
    if stats["counters"].get("interlink_bytes", 0) <= 0:
        fail("cluster point moved no interlink traffic: "
             f"{stats['counters']}")
    print(f"bit-reproducible cluster point "
          f"({stats['cycles']} cycles): OK")

    # 4. the HTML report renders the cluster rows distinguishably
    cli("db", "report", "--db", db, "--output", report,
        "--title", "multigpu smoke")
    text = Path(report).read_text()
    for needle in ("multigpu smoke", "x2GPU", "<th>GPUs</th>"):
        if needle not in text:
            fail(f"report is missing {needle!r}")
    print(f"report rendered ({len(text)} bytes): OK")
    print(f"\nmultigpu smoke passed — artifacts in {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
