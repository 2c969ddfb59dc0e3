#!/usr/bin/env python
"""End-to-end smoke of the results database, suitable for CI.

Runs a small sweep into a fresh database through the real CLI,
verifies the rows are provenance-stamped and queryable, runs the
identical sweep again against the same database (the database must
answer every point: no new row, every row re-stamped
``runner-cache``), and renders the HTML report — which CI uploads as
an artifact.

Usage::

    PYTHONPATH=src python scripts/db_smoke.py [OUT_DIR]

``OUT_DIR`` (default ``db-smoke/``) receives ``repro.db`` and
``report.html``.  Exits non-zero with a diagnostic on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT = Path(sys.argv[1] if len(sys.argv) > 1 else "db-smoke").resolve()
RUN_ARGS = ["--preset", "tiny", "--scale", "0.3", "--seed", "2018"]


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
    for stale in OUT.glob("repro.db*"):
        stale.unlink()
    db = str(OUT / "repro.db")
    report = str(OUT / "report.html")

    # 1. a small sweep records rows as it runs
    cli("run", "fig12", *RUN_ARGS, "--db", db)
    summary = json.loads(cli("db", "query", "--db", db, "--summary"))
    if summary["runs"] < 5:
        fail(f"expected a sweep's worth of rows, got {summary}")
    if summary["commits"] < 1 or summary["hosts"] != 1:
        fail(f"rows are missing provenance: {summary}")
    print(f"recorded {summary['runs']} run(s) from "
          f"{summary['commits']} commit(s): OK")

    # 2. rows answer filtered queries
    listing = cli("db", "query", "--db", db, "--protocol", "gtsc",
                  "--consistency", "rc")
    if "gtsc-rc" not in listing:
        fail(f"query returned no gtsc-rc rows:\n{listing}")
    print("filtered query: OK")

    # 3. an identical second sweep simulates nothing: the database
    #    answers every point and re-stamps its row as runner-cache
    cli("run", "fig12", *RUN_ARGS, "--db", db)
    again = json.loads(cli("db", "query", "--db", db, "--summary"))
    if again["runs"] != summary["runs"]:
        fail(f"the repeat sweep changed the row count: "
             f"{summary['runs']} -> {again['runs']}")
    if again["by_source"] != {"runner-cache": summary["runs"]}:
        fail(f"the repeat sweep simulated: {again['by_source']}")
    print("repeat sweep answered from the database: OK")

    # 4. the HTML report renders from queries alone
    cli("db", "report", "--db", db, "--output", report,
        "--title", "results-db smoke")
    text = Path(report).read_text()
    for needle in ("results-db smoke", "Fleet summary", "G-TSC-RC",
                   "Provenance appendix"):
        if needle not in text:
            fail(f"report is missing {needle!r}")
    print(f"report rendered ({len(text)} bytes): OK")
    print(f"\ndb smoke passed — artifacts in {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
