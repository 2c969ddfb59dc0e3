#!/usr/bin/env python
"""End-to-end smoke of the experiment service, suitable for CI.

Boots ``repro serve`` as a real subprocess with a fresh results
database, submits the same tiny point twice (the second submit must
be answered from the database),
checks the metrics show one lease and one execution by an in-process
fleet worker, sends SIGTERM, and asserts a clean graceful drain: exit
code 0, the drain banner in the log, and a journal whose every job is
DONE and was run by an in-process worker.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [PORT]

Exits non-zero with a diagnostic on any failure.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PORT = int(sys.argv[1]) if len(sys.argv) > 1 else 18644
SPEC_ARGS = ["HS", "--preset", "tiny", "--scale", "0.1",
             "--seed", "2018"]


def fail(message: str, proc: subprocess.Popen | None = None) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    if proc is not None and proc.poll() is None:
        proc.kill()
        proc.wait()
    if proc is not None and proc.stderr is not None:
        sys.stderr.write(proc.stderr.read())
    raise SystemExit(1)


def submit(expect_cached: bool) -> dict:
    run = subprocess.run(
        [sys.executable, "-m", "repro.cli", "submit", *SPEC_ARGS,
         "--port", str(PORT), "--json"],
        cwd=REPO, capture_output=True, text=True, timeout=120)
    if run.returncode != 0:
        fail(f"submit exited {run.returncode}: {run.stderr}")
    reply = json.loads(run.stdout)
    if not reply.get("ok"):
        fail(f"submit refused: {reply}")
    if bool(reply.get("cached")) is not expect_cached:
        fail(f"expected cached={expect_cached}, got: {reply}")
    return reply


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        state_dir = Path(tmp) / "state"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", str(PORT),
             "--state-dir", str(state_dir),
             "--db", str(Path(tmp) / "repro.db")],
            cwd=REPO, stderr=subprocess.PIPE, text=True)
        try:
            # wait for the listener
            sys.path.insert(0, str(REPO / "src"))
            from repro.serve import JobStore, ServeClient
            client = ServeClient(port=PORT, timeout=10, retries=20,
                                 backoff_base=0.25)
            health = client.healthz()
            if health.get("status") != "serving":
                fail(f"unexpected health: {health}", proc)
            print(f"serving on :{PORT} "
                  f"(retries to connect: {client.retries_used})")

            first = submit(expect_cached=False)
            print(f"cold submit: job {first['job_id']}, "
                  f"{first['stats']['cycles']} cycles")
            second = submit(expect_cached=True)
            if second["stats"] != first["stats"]:
                fail("cache hit returned different stats")
            if second["key"] != first["key"]:
                fail("cache hit returned a different key")
            print("second submit answered from the db, bit-identical")

            # the one execution path: an in-process fleet worker
            # leased the cold job and completed it through the
            # scheduler's fleet ops
            snapshot = client.metrics()["snapshot"]
            client.close()
            expected = {"executed": 1, "leases": 1, "cache_hits": 1,
                        "timeouts": 0}
            seen = {name: snapshot.get(name) for name in expected}
            if seen != expected:
                fail(f"metrics {seen}, expected {expected}", proc)
            print(f"metrics: {seen}")

            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                fail("server did not exit within 30s of SIGTERM", proc)
            log = proc.stderr.read() if proc.stderr else ""
            if proc.returncode != 0:
                fail(f"server exited {proc.returncode}:\n{log}")
            if "drain complete" not in log:
                fail(f"no drain banner in log:\n{log}")

            store = JobStore(str(state_dir / "jobs.jsonl"))
            counts = store.counts()
            workers = [job.worker for job in store.jobs()]
            store.close()
            if counts["done"] != 1 or counts["pending"] or \
                    counts["leased"] or counts["failed"]:
                fail(f"journal not clean after drain: {counts}")
            if not all(re.fullmatch(r"local-\d+", worker)
                       for worker in workers):
                fail(f"job not run by an in-process worker: {workers}")
            print(f"clean drain, journal: {counts}, "
                  f"worker(s): {workers}")
            print("OK")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


if __name__ == "__main__":
    main()
