"""What a dispatcher killed mid-transition leaves in its database.

A child process runs a :class:`Scheduler` on a temporary database and
SIGKILLs itself at one point of a transition: an sqlite trace callback
on the scheduler's connection finds the statement, and for the point
after ``complete`` commits, ``Scheduler._resolve`` is replaced.  After
each kill the test reopens the database and checks that no job is
DONE without its ``runs`` row, that every submitted job is there,
that no key has two rows, and that a fresh scheduler finishes every
job without running a finished one again.

A second pair of tests holds ``BEGIN IMMEDIATE`` from another process
while the scheduler completes a job, under a short busy timeout.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.db.store import ResultsDB
from repro.serve import Scheduler, make_spec, spec_key
from repro.stats.collector import RunStats

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

SPECS = [make_spec("HS", preset="tiny", scale=0.1, seed=seed)
         for seed in range(3)]

#: the child: submits SPECS, finishes the first job, leases the second
#: and dies at ``point``; it prints the statements run since arming
CHILD = r"""
import os, signal, sys
from repro.serve import Scheduler, make_spec
from repro.stats.collector import RunStats

path, point = sys.argv[1], sys.argv[2]
stats = RunStats(config_desc="fake", cycles=42, counters={"a": 1})
scheduler = Scheduler(jobs=0, db=path)
for seed in range(3):
    scheduler.submit(make_spec("HS", preset="tiny", scale=0.1, seed=seed))
first = scheduler.lease("w0", 60)
assert scheduler.complete(first.id, "w0", stats)
seen = []


def die():
    print("\n".join(seen), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)


def kill_at(prefix):
    def trace(statement):
        seen.append(statement)
        if statement.startswith(prefix):
            die()
    scheduler.db._conn.set_trace_callback(trace)


if point == "lease":
    kill_at("UPDATE jobs SET state = 'leased'")
    scheduler.lease("w0", 60)
else:
    job = scheduler.lease("w0", 60)
    if point == "complete-begin":
        kill_at("BEGIN")
    elif point == "complete-update":
        kill_at("UPDATE jobs")
    else:
        Scheduler._resolve = lambda self, key, stats: die()
    scheduler.complete(job.id, "w0", stats)
sys.exit("the kill point was never reached")
"""


def fake_stats() -> RunStats:
    return RunStats(config_desc="fake", cycles=42, counters={"a": 1})


def run_child(path: str, point: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", CHILD, path, point],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == -signal.SIGKILL, run.stderr
    return run.stdout


def job_rows(db: ResultsDB):
    """``{key: state}`` of every job, read without reopening the queue
    (which would requeue the dead process's leases)."""
    rows = db.query("SELECT key, state FROM jobs ORDER BY seq")
    assert len(rows) == len({key for key, _ in rows})
    return dict(rows)


@pytest.mark.parametrize("point", ["complete-begin", "complete-update",
                                   "complete-commit", "lease"])
def test_sigkill_leaves_a_consistent_queue(tmp_path, point):
    path = str(tmp_path / "repro.db")
    trace = run_child(path, point)
    keys = [spec_key(spec) for spec in SPECS]

    db = ResultsDB(path)
    states = job_rows(db)
    stored = dict(db.query("SELECT run_key, COUNT(*) FROM runs "
                           "GROUP BY run_key"))
    # every submitted job is there, once
    assert sorted(states) == sorted(keys)
    # no job is DONE without its row, and no key has two rows
    assert all(key in stored for key, state in states.items()
               if state == "done")
    assert set(stored.values()) == {1}
    # what each kill point leaves of the second job
    second = {"complete-begin": "leased", "complete-update": "leased",
              "complete-commit": "done", "lease": "pending"}[point]
    assert states[keys[0]] == "done"
    assert states[keys[1]] == second
    assert (keys[1] in stored) == (second == "done")
    assert states[keys[2]] == "pending"
    if point == "complete-update":
        # the kill came inside the transaction, after the result rows
        statements = trace.splitlines()
        inside = statements[statements.index("BEGIN IMMEDIATE"):]
        assert any(s.startswith("INSERT INTO runs") for s in inside)
        assert inside[-1].startswith("UPDATE jobs SET state = 'done'")
        assert "COMMIT" not in inside
    db.close()

    executed = []

    def execute(spec):
        executed.append(spec["seed"])
        return fake_stats()

    scheduler = Scheduler(jobs=1, db=path, execute=execute,
                          poll_interval=0.01)
    scheduler.start()
    try:
        deadline = time.monotonic() + 30
        while scheduler.store.counts()["done"] < len(SPECS):
            assert time.monotonic() < deadline, scheduler.store.counts()
            time.sleep(0.01)
    finally:
        scheduler.stop()
    # a finished job never runs again
    assert sorted(executed) == ([2] if second == "done" else [1, 2])
    assert all(scheduler.db.get_stats(key) == fake_stats()
               for key in keys)
    scheduler.store.close()


# ---------------------------------------------------------------------------
# a database locked by another process
# ---------------------------------------------------------------------------

HOLDER = r"""
import sqlite3, sys
conn = sqlite3.connect(sys.argv[1], isolation_level=None)
conn.execute("BEGIN IMMEDIATE")
print("locked", flush=True)
sys.stdin.readline()
conn.execute("ROLLBACK")
"""


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def hold_lock(path: str) -> subprocess.Popen:
    holder = subprocess.Popen([sys.executable, "-c", HOLDER, path],
                              stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True)
    assert holder.stdout.readline().strip() == "locked"
    return holder


def release(holder: subprocess.Popen) -> None:
    holder.stdin.write("\n")
    holder.stdin.flush()


def leased_job(tmp_path, clock):
    db = ResultsDB(str(tmp_path / "repro.db"), timeout=0.2)
    scheduler = Scheduler(jobs=0, db=db, clock=clock)
    submission = scheduler.submit(SPECS[0])
    job = scheduler.lease("w0", 60)
    return db, scheduler, submission, job


def test_complete_waits_for_a_lock_released_within_the_timeout(tmp_path):
    clock = FakeClock()
    db, scheduler, submission, job = leased_job(tmp_path, clock)
    holder = hold_lock(db.path)
    began = threading.Event()

    def trace(statement):
        if statement.startswith("BEGIN"):
            began.set()

    def release_once_waiting():
        # complete's transaction has started against the held lock
        assert began.wait(10)
        release(holder)

    releaser = threading.Thread(target=release_once_waiting)
    releaser.start()
    db._conn.set_trace_callback(trace)
    try:
        assert scheduler.complete(job.id, "w0", fake_stats()) is True
    finally:
        db._conn.set_trace_callback(None)
        releaser.join(10)
        holder.wait(10)
    assert submission.future.result(timeout=1) == fake_stats()
    # the rows and DONE committed together
    assert scheduler.store.get(job.id).state == "done"
    assert db.get_stats(submission.key) == fake_stats()
    db.close()


def test_complete_under_a_lock_held_past_the_timeout(tmp_path):
    clock = FakeClock()
    db, scheduler, submission, job = leased_job(tmp_path, clock)
    holder = hold_lock(db.path)
    try:
        with pytest.warns(RuntimeWarning, match="results-db record"):
            assert scheduler.complete(job.id, "w0", fake_stats()) is False
    finally:
        release(holder)
        holder.wait(10)
    # the waiter has its result; the job has neither DONE nor a row
    assert submission.future.result(timeout=1) == fake_stats()
    assert scheduler.store.get(job.id).state == "leased"
    assert db.get_run(submission.key) is None
    # once the lease expires the job runs again and finishes
    assert scheduler.lease("w1", 60) is None
    clock.now += 61
    again = scheduler.lease("w1", 60)
    assert (again.id, again.attempts) == (job.id, 2)
    assert scheduler.complete(again.id, "w1", fake_stats()) is True
    assert scheduler.store.get(job.id).state == "done"
    assert db.get_stats(submission.key) == fake_stats()
    db.close()
