"""The durable job store: the jobs table, leases, expiry, reopen.

What a process killed mid-transition leaves behind is checked by
``tests/test_serve_crash.py``.
"""

from __future__ import annotations

import pytest

from repro.db.store import ResultsDB
from repro.serve.jobs import (DONE, FAILED, LEASED, PENDING, JobStore)

SPEC = {"workload": "HS", "protocol": "gtsc", "consistency": "rc",
        "preset": "tiny", "scale": 0.1, "seed": 7, "overrides": {}}


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def open_store(path, clock) -> JobStore:
    return JobStore(ResultsDB(str(path)), clock=clock)


@pytest.fixture
def store(tmp_path, clock):
    s = open_store(tmp_path / "repro.db", clock)
    yield s
    s.close()


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

def test_submit_lease_complete(store):
    job = store.submit(SPEC, "key-a")
    assert job.state == PENDING and job.id == "j000001"
    leased = store.lease("w0", duration=60)
    assert leased.id == job.id
    assert leased.state == LEASED and leased.attempts == 1
    assert store.complete(job.id, "w0")
    assert store.get(job.id).state == DONE
    assert store.counts() == {"pending": 0, "leased": 0,
                              "done": 1, "failed": 0}


def test_submit_deduplicates_active_key(store):
    first = store.submit(SPEC, "key-a")
    second = store.submit(SPEC, "key-a")
    assert second.id == first.id
    assert store.active_count() == 1
    # a *finished* job no longer blocks a resubmit
    store.lease("w0", duration=60)
    store.complete(first.id, "w0")
    third = store.submit(SPEC, "key-a")
    assert third.id != first.id


def test_lease_order_is_submission_order(store):
    a = store.submit(SPEC, "key-a")
    b = store.submit(SPEC, "key-b")
    assert store.lease("w0", duration=60).id == a.id
    assert store.lease("w1", duration=60).id == b.id
    assert store.lease("w2", duration=60) is None


def test_fail_is_terminal_and_frees_the_key(store):
    job = store.submit(SPEC, "key-a")
    store.lease("w0", duration=60)
    assert store.fail(job.id, "w0", "boom")
    failed = store.get(job.id)
    assert failed.state == FAILED and failed.error == "boom"
    assert store.active_for("key-a") is None


def test_requeue_honours_not_before(store, clock):
    job = store.submit(SPEC, "key-a")
    store.lease("w0", duration=60)
    assert store.requeue(job.id, "w0", not_before=clock.now + 30)
    assert store.lease("w0", duration=60) is None     # backing off
    clock.advance(31)
    assert store.lease("w0", duration=60).id == job.id


def test_finish_requires_a_lease(store):
    job = store.submit(SPEC, "key-a")
    assert not store.complete(job.id, "w0")
    assert not store.fail(job.id, "w0", "nope")
    assert not store.requeue(job.id, "w0")
    assert store.get(job.id).state == PENDING
    store.lease("w0", duration=60)
    assert not store.complete(job.id, "w1")   # not the holder
    assert store.get(job.id).state == LEASED


# ---------------------------------------------------------------------------
# lease expiry
# ---------------------------------------------------------------------------

def test_expired_lease_is_requeued_to_another_worker(store, clock):
    job = store.submit(SPEC, "key-a")
    store.lease("w0", duration=60)
    clock.advance(30)
    assert store.lease("w1", duration=60) is None     # still held
    clock.advance(31)                                 # deadline passed
    taken = store.lease("w1", duration=60)
    assert taken.id == job.id
    assert taken.worker == "w1" and taken.attempts == 2


def test_completing_after_expiry_reassignment_is_refused(store, clock):
    """The slow first worker cannot complete a job it lost."""
    job = store.submit(SPEC, "key-a")
    store.lease("w0", duration=10)
    clock.advance(11)
    store.lease("w1", duration=60)
    assert not store.complete(job.id, "w0")   # w0 lost the lease
    assert store.complete(job.id, "w1")       # w1's completion wins
    assert store.get(job.id).state == DONE
    assert not store.complete(job.id, "w1")   # a second report


# ---------------------------------------------------------------------------
# durability: reopening the database
# ---------------------------------------------------------------------------

def test_replay_restores_every_state(tmp_path, clock):
    path = tmp_path / "repro.db"
    store = open_store(path, clock)
    done = store.submit(SPEC, "key-done")
    store.lease("w0", duration=60)
    store.complete(done.id, "w0")
    failed = store.submit(SPEC, "key-failed")
    store.lease("w0", duration=60)
    store.fail(failed.id, "w0", "exploded")
    pending = store.submit(SPEC, "key-pending")
    store.close()

    reopened = open_store(path, clock)
    assert reopened.get(done.id).state == DONE
    assert reopened.get(failed.id).state == FAILED
    assert reopened.get(failed.id).error == "exploded"
    assert reopened.get(pending.id).state == PENDING
    assert reopened.get(pending.id).spec == SPEC
    # ids keep counting from where the queue left off
    assert reopened.submit(SPEC, "key-new").id == "j000004"
    reopened.close()


def test_killed_workers_job_is_requeued_on_reopen(tmp_path, clock):
    """A process killed mid-execution loses no jobs: the LEASED entry
    is requeued at the next open, even before its deadline."""
    path = tmp_path / "repro.db"
    store = open_store(path, clock)
    job = store.submit(SPEC, "key-a")
    store.lease("w0", duration=3600)
    store.close()                      # "kill -9" between lease+done

    reopened = open_store(path, clock)
    recovered = reopened.get(job.id)
    assert recovered.state == PENDING
    assert reopened.lease("w1", duration=60).id == job.id
    reopened.close()


def test_database_refuses_a_second_active_job_per_key(store):
    """The partial unique index holds the dedup invariant even against
    a write that skips :meth:`JobStore.submit`'s own check."""
    import sqlite3

    job = store.submit(SPEC, "key-a")
    with pytest.raises(sqlite3.IntegrityError):
        with store.db.transaction() as conn:
            conn.execute("INSERT INTO jobs (key, spec, submitted_at, "
                         "updated_at) VALUES ('key-a', '{}', 0, 0)")
    store.lease("w0", duration=60)
    store.complete(job.id, "w0")
    assert store.submit(SPEC, "key-a").id == "j000002"


# ---------------------------------------------------------------------------
# heartbeats
# ---------------------------------------------------------------------------

def test_heartbeat_extends_the_deadline(store, clock):
    job = store.submit(SPEC, "key-a")
    store.lease("w0", duration=60)
    clock.advance(50)
    store.heartbeat(job.id, "w0", duration=60)
    clock.advance(50)                       # past the original deadline
    assert store.lease("w1", duration=60) is None     # still held
    clock.advance(61)
    assert store.lease("w1", duration=60).id == job.id


def test_heartbeat_rejects_lost_or_foreign_leases(store, clock):
    job = store.submit(SPEC, "key-a")
    store.lease("w0", duration=10)
    with pytest.raises(ValueError, match="not leased by"):
        store.heartbeat(job.id, "w1", duration=10)    # wrong worker
    clock.advance(11)
    store.lease("w1", duration=60)                    # stolen
    with pytest.raises(ValueError, match="not leased by"):
        store.heartbeat(job.id, "w0", duration=10)    # lost lease
    with pytest.raises(KeyError):
        store.heartbeat("j999999", "w0", duration=10)


# ---------------------------------------------------------------------------
# atomic backpressure
# ---------------------------------------------------------------------------

def test_submit_limit_refuses_then_admits(store):
    assert store.submit(SPEC, "key-a", limit=2) is not None
    assert store.submit(SPEC, "key-b", limit=2) is not None
    assert store.submit(SPEC, "key-c", limit=2) is None   # full
    # dedup wins over the limit: attaching costs no capacity
    assert store.submit(SPEC, "key-a", limit=2).id == "j000001"
    # finishing a job frees its slot
    job = store.lease("w0", duration=60)
    store.complete(job.id, "w0")
    assert store.submit(SPEC, "key-c", limit=2) is not None


# ---------------------------------------------------------------------------
# lease cost
# ---------------------------------------------------------------------------

def test_lease_statements_seek_the_queue_index(store, clock):
    """Both statements of a lease search the index over active jobs by
    state rather than reading every active row: the expiry reads the
    leases alone, and the grant walks the pending jobs in seq order
    with ``not_before`` in the index.  So a lease costs about the same
    however many jobs wait."""
    store.submit(SPEC, "key-a")
    store.submit(SPEC, "key-b")
    store.lease("w0", duration=60)
    clock.advance(120)
    statements = []
    conn = store.db._conn
    conn.set_trace_callback(statements.append)
    try:
        assert store.lease("w1", duration=60) is not None
    finally:
        conn.set_trace_callback(None)
    expire, grant = [sql for sql in statements if sql.startswith("UPDATE")]
    plans = [" / ".join(row[3] for row in
                        store.db.query(f"EXPLAIN QUERY PLAN {sql}"))
             for sql in (expire, grant)]
    # the wording around an index name varies between sqlite releases
    assert all("idx_jobs_queue" in plan for plan in plans)
    assert "idx_jobs_active" not in plans[0] + plans[1]
