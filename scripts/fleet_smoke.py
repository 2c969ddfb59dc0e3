#!/usr/bin/env python
"""End-to-end smoke of the dispatcher + worker fleet, suitable for CI.

Boots ``repro serve --jobs 0`` (a pure dispatcher: it journals,
leases, and records, but never simulates) plus two ``repro serve
worker --connect`` subprocesses, submits a small 7-point matrix (six
single-GPU seeds plus one 4-GPU cluster point) from concurrent
clients, and asserts the fleet actually did the work:

* every submit resolves ok with stats;
* every job was executed by a fleet worker — the ``--jobs 0``
  dispatcher never simulates;
* the 4-GPU point keeps its machine shape end to end: ``n_gpus=4``
  in the result envelope, interlink traffic in its counters, and
  ``n_gpus=4`` on its database row;
* the journal drains to 7 DONE jobs, nothing pending/leased/failed;
* all 7 runs landed in the sqlite results database, the fleet's one
  result store, with ``source="serve"``.

Shutdown is part of the smoke: workers get SIGTERM and must exit 0,
then the dispatcher gets SIGTERM and must print its drain banner.

Usage::

    PYTHONPATH=src python scripts/fleet_smoke.py [PORT]

Exits non-zero with a diagnostic on any failure.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PORT = int(sys.argv[1]) if len(sys.argv) > 1 else 18654
WORKERS = 2
SEEDS = range(2018, 2024)  # 6-point matrix: one workload, six seeds


def fail(message: str,
         procs: list[subprocess.Popen] | None = None) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    for proc in procs or []:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stderr is not None:
            sys.stderr.write(proc.stderr.read())
    raise SystemExit(1)


def main() -> None:
    sys.path.insert(0, str(REPO / "src"))
    from repro.db import ResultsDB
    from repro.serve import JobStore, ServeClient
    from repro.serve.schema import validate_spec

    procs: list[subprocess.Popen] = []
    with tempfile.TemporaryDirectory(prefix="fleet-smoke-") as tmp:
        state_dir = Path(tmp) / "state"
        db_path = Path(tmp) / "repro.db"
        dispatcher = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", str(PORT), "--jobs", "0",
             "--state-dir", str(state_dir),
             "--db", str(db_path)],
            cwd=REPO, stderr=subprocess.PIPE, text=True)
        procs.append(dispatcher)
        try:
            client = ServeClient(port=PORT, timeout=30, retries=20,
                                 backoff_base=0.25)
            health = client.healthz()
            if health.get("status") != "serving":
                fail(f"unexpected health: {health}", procs)
            print(f"dispatcher on :{PORT} (jobs=0, pure dispatch)")

            for index in range(WORKERS):
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "serve",
                     "worker", "--connect", f"127.0.0.1:{PORT}",
                     "--name", f"smoke-w{index}",
                     "--poll-interval", "0.05"],
                    cwd=REPO, stderr=subprocess.PIPE, text=True))
            print(f"{WORKERS} worker(s) connected")

            specs = [validate_spec({
                "workload": "HS", "preset": "tiny", "scale": 0.1,
                "seed": seed}) for seed in SEEDS]
            # plus one 4-GPU cluster point: the fleet must carry the
            # machine-shape override through worker, envelope, and db
            specs.append(validate_spec({
                "workload": "PCX", "preset": "tiny", "scale": 0.1,
                "seed": 2018, "overrides": {"n_gpus": 4}}))
            replies: list[dict | None] = [None] * len(specs)

            def submit(index: int) -> None:
                # one client per thread: the persistent connection
                # is a single caller's object
                own = ServeClient(port=PORT, timeout=120, retries=10)
                try:
                    replies[index] = own.submit(specs[index])
                finally:
                    own.close()

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(len(specs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            for index, reply in enumerate(replies):
                if reply is None or not reply.get("ok"):
                    fail(f"submit {index} failed: {reply}", procs)
                if "stats" not in reply:
                    fail(f"submit {index} has no stats: {reply}",
                         procs)
            print(f"{len(specs)} submits resolved with stats")

            cluster = replies[-1]
            if cluster.get("n_gpus") != 4:
                fail(f"cluster envelope lost its n_gpus stamp: "
                     f"{cluster.get('n_gpus')}", procs)
            interlink = cluster["stats"]["counters"].get(
                "interlink_bytes", 0)
            if interlink <= 0:
                fail("4-GPU point moved no interlink traffic", procs)
            print(f"4-GPU point: n_gpus=4 in the envelope, "
                  f"{interlink} interlink byte(s)")

            jobs = client.jobs()
            executed_by = {job.get("worker") for job in
                           jobs.get("jobs", []) if job.get("worker")}
            if not executed_by or not all(
                    name.startswith("smoke-w")
                    for name in executed_by):
                fail(f"jobs executed outside the worker fleet: "
                     f"{sorted(executed_by)}", procs)
            print(f"work executed by: {sorted(executed_by)}")

            # workers drain-exit on SIGTERM, then the dispatcher
            for proc in procs[1:]:
                proc.send_signal(signal.SIGTERM)
            for proc in procs[1:]:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    fail("worker did not exit within 30s", procs)
                if proc.returncode != 0:
                    fail(f"worker exited {proc.returncode}", procs)
            dispatcher.send_signal(signal.SIGTERM)
            try:
                dispatcher.wait(timeout=30)
            except subprocess.TimeoutExpired:
                fail("dispatcher did not exit within 30s", procs)
            log = dispatcher.stderr.read() if dispatcher.stderr \
                else ""
            if dispatcher.returncode != 0:
                fail(f"dispatcher exited "
                     f"{dispatcher.returncode}:\n{log}")
            if "drain complete" not in log:
                fail(f"no drain banner in log:\n{log}")

            store = JobStore(str(state_dir / "jobs.jsonl"))
            counts = store.counts()
            store.close()
            if counts["done"] != len(specs) or counts["pending"] \
                    or counts["leased"] or counts["failed"]:
                fail(f"journal not drained: {counts}")
            print(f"journal drained: {counts}")

            db = ResultsDB(str(db_path))
            rows = db.runs(source="serve")
            db.close()
            if len(rows) != len(specs):
                fail(f"expected {len(specs)} serve rows in "
                     f"{db_path}, found {len(rows)}")
            cluster_rows = [row for row in rows
                            if row.get("n_gpus") == 4]
            if len(cluster_rows) != 1 or \
                    cluster_rows[0]["workload"] != "PCX":
                fail(f"db lost the 4-GPU provenance: "
                     f"{[(r['workload'], r.get('n_gpus')) for r in rows]}")
            print(f"results db holds {len(rows)} serve run(s), "
                  f"1 at n_gpus=4")
            print("OK")
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()


if __name__ == "__main__":
    main()
