"""Single-flight scheduling, retry/backoff, quarantine, backpressure.

These tests drive the scheduler and its in-process fleet workers
directly (no TCP), with fake ``execute`` callables where timing matters
and the real simulator where bit-identity matters.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.serve import (Busy, JobStore, Quarantined, Scheduler,
                         execute_spec, make_spec, spec_key)
from repro.stats.collector import RunStats

TINY = make_spec("HS", preset="tiny", scale=0.1, seed=7)


def fake_stats(cycles: int = 42) -> RunStats:
    return RunStats(config_desc="fake", cycles=cycles,
                    counters={"instructions": 1})


@pytest.fixture
def store(tmp_path):
    s = JobStore(str(tmp_path / "jobs.jsonl"))
    yield s
    s.close()


def make_scheduler(store, tmp_path=None, **kwargs):
    db = str(tmp_path / "repro.db") if tmp_path is not None else None
    kwargs.setdefault("poll_interval", 0.01)
    return Scheduler(store, db=db, **kwargs)


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(0.005)


# ---------------------------------------------------------------------------
# single-flight dedup
# ---------------------------------------------------------------------------

def test_concurrent_identical_submits_execute_once(store):
    """Eight racing submissions of one point -> exactly one execution,
    and every caller receives the same result object."""
    gate = threading.Event()
    executions = []

    def execute(spec):
        executions.append(spec)
        gate.wait(5)
        return fake_stats()

    scheduler = make_scheduler(store, execute=execute, jobs=2)
    scheduler.start()
    try:
        submissions = []
        errors = []

        def submit():
            try:
                submissions.append(scheduler.submit(dict(TINY)))
            except Exception as error:     # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        gate.set()
        results = [s.future.result(timeout=10) for s in submissions]
        assert len(executions) == 1
        assert all(r is results[0] for r in results)
        assert sum(1 for s in submissions if s.coalesced) == 7
        assert store.counts()["done"] == 1
    finally:
        gate.set()
        scheduler.stop()


def test_distinct_specs_do_not_coalesce(store):
    executed = []

    def execute(spec):
        executed.append(spec["workload"])
        return fake_stats()

    scheduler = make_scheduler(store, execute=execute, jobs=1)
    scheduler.start()
    try:
        a = scheduler.submit(make_spec("HS", preset="tiny", scale=0.1))
        b = scheduler.submit(make_spec("KM", preset="tiny", scale=0.1))
        a.future.result(timeout=10)
        b.future.result(timeout=10)
        assert sorted(executed) == ["HS", "KM"]
    finally:
        scheduler.stop()


def test_cache_hit_skips_the_queue(store, tmp_path):
    scheduler = make_scheduler(store, tmp_path=tmp_path,
                               execute=lambda spec: fake_stats(),
                               jobs=1)
    scheduler.start()
    try:
        cold = scheduler.submit(dict(TINY))
        cold.future.result(timeout=10)
        warm = scheduler.submit(dict(TINY))
        assert warm.cached and warm.job_id is None
        assert warm.future.result(timeout=1) is not None
        assert scheduler.cache_hits == 1
        assert store.counts()["done"] == 1      # no second job
    finally:
        scheduler.stop()


# ---------------------------------------------------------------------------
# retry, quarantine, timeout
# ---------------------------------------------------------------------------

def test_flaky_execution_retries_then_succeeds(store):
    attempts = []

    def execute(spec):
        attempts.append(1)
        if len(attempts) < 3:
            raise RuntimeError("transient")
        return fake_stats()

    scheduler = make_scheduler(store, execute=execute, jobs=1,
                               max_attempts=3, backoff_base=0.01,
                               rng=random.Random(7))
    scheduler.start()
    try:
        submission = scheduler.submit(dict(TINY))
        stats = submission.future.result(timeout=10)
        assert stats.cycles == 42
        assert len(attempts) == 3
        assert scheduler.retried == 2
        job = store.get(submission.job_id)
        assert job.state == "done" and job.attempts == 3
    finally:
        scheduler.stop()


def test_exhausted_retries_quarantine_the_key(store):
    def execute(spec):
        raise RuntimeError("deterministic crash")

    scheduler = make_scheduler(store, execute=execute, jobs=1,
                               max_attempts=2, backoff_base=0.01,
                               quarantine_ttl=60,
                               rng=random.Random(7))
    scheduler.start()
    try:
        submission = scheduler.submit(dict(TINY))
        with pytest.raises(Quarantined, match="deterministic crash"):
            submission.future.result(timeout=10)
        assert store.get(submission.job_id).state == "failed"
        # an immediate resubmit fails fast, without a new job
        with pytest.raises(Quarantined):
            scheduler.submit(dict(TINY))
        assert store.counts()["failed"] == 1
        assert store.active_count() == 0
    finally:
        scheduler.stop()


def test_quarantine_expires(store):
    clock = [1000.0]

    def execute(spec):
        raise RuntimeError("crash")

    scheduler = make_scheduler(store, execute=execute, jobs=1,
                               max_attempts=1, quarantine_ttl=30,
                               clock=lambda: clock[0])
    scheduler.start()
    try:
        submission = scheduler.submit(dict(TINY))
        with pytest.raises(Quarantined):
            submission.future.result(timeout=10)
        with pytest.raises(Quarantined):
            scheduler.submit(dict(TINY))
        clock[0] += 31
        resubmitted = scheduler.submit(dict(TINY))   # allowed again
        with pytest.raises(Quarantined):
            resubmitted.future.result(timeout=10)
    finally:
        scheduler.stop()


def test_per_job_timeout_counts_and_retries(store):
    stalls = []

    def execute(spec):
        if not stalls:
            stalls.append(1)
            time.sleep(5)              # first attempt wedges
        return fake_stats()

    scheduler = make_scheduler(store, execute=execute, jobs=1,
                               timeout=0.1, max_attempts=2,
                               backoff_base=0.01,
                               rng=random.Random(7))
    scheduler.start()
    try:
        submission = scheduler.submit(dict(TINY))
        stats = submission.future.result(timeout=10)
        assert stats.cycles == 42
        assert scheduler.timeouts == 1
        assert scheduler.retried == 1
    finally:
        scheduler.stop()


def test_local_job_outliving_its_lease_runs_once(store, monkeypatch):
    """An in-process worker heartbeats its lease like a remote one, so
    a job that runs past ``lease_duration`` is not handed to the other
    thread, and no worker thread dies on the way."""
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    executions = []

    def execute(spec):
        executions.append(spec["workload"])
        time.sleep(0.4)
        return fake_stats()

    scheduler = make_scheduler(store, execute=execute, jobs=2,
                               lease_duration=0.1)
    scheduler.start()
    try:
        scheduler.submit(dict(TINY)).future.result(timeout=10)
        assert executions == ["HS"]
        later = scheduler.submit(make_spec("KM", preset="tiny",
                                           scale=0.1))
        later.future.result(timeout=10)
        assert executions == ["HS", "KM"]
        assert crashes == []
    finally:
        scheduler.stop()


def test_local_workers_count_every_execution_once(store):
    """More in-process workers than cores, switching threads as often
    as the interpreter allows: the counters and histograms the workers
    share lose no update."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    scheduler = make_scheduler(store, execute=lambda spec: fake_stats(),
                               jobs=4, queue_limit=128)
    scheduler.start()
    try:
        submissions = [scheduler.submit(make_spec(
            "HS", preset="tiny", scale=0.1, seed=seed))
            for seed in range(100)]
        for submission in submissions:
            submission.future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        scheduler.stop()
    assert scheduler.executed == scheduler.leases == 100
    latency = scheduler.latency_summary()
    assert latency["job_simulate_ms"]["count"] == 100
    assert latency["job_queue_wait_ms"]["count"] == 100


# ---------------------------------------------------------------------------
# backpressure
# ---------------------------------------------------------------------------

def test_full_queue_raises_busy(store):
    gate = threading.Event()

    def execute(spec):
        gate.wait(10)
        return fake_stats()

    scheduler = make_scheduler(store, execute=execute, jobs=1,
                               queue_limit=2, retry_after=3.5)
    scheduler.start()
    try:
        scheduler.submit(make_spec("HS", preset="tiny", scale=0.1))
        scheduler.submit(make_spec("KM", preset="tiny", scale=0.1))
        with pytest.raises(Busy) as excinfo:
            scheduler.submit(make_spec("BP", preset="tiny",
                                       scale=0.1))
        assert excinfo.value.retry_after == 3.5
        assert scheduler.rejected == 1
        # identical submits still coalesce while the queue is full
        dup = scheduler.submit(make_spec("HS", preset="tiny",
                                         scale=0.1))
        assert dup.coalesced
    finally:
        gate.set()
        scheduler.stop()


# ---------------------------------------------------------------------------
# acceptance: real simulations through the service path
# ---------------------------------------------------------------------------

def test_served_result_is_bit_identical_to_direct_run(store, tmp_path):
    scheduler = make_scheduler(store, tmp_path=tmp_path, jobs=1)
    scheduler.start()
    try:
        submissions = []

        def submit():
            submissions.append(scheduler.submit(dict(TINY)))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results = [s.future.result(timeout=60) for s in submissions]
        assert scheduler.executed == 1     # exactly one simulation
        direct = execute_spec(dict(TINY))
        for result in results:
            assert result.to_dict() == direct.to_dict()
    finally:
        scheduler.stop()


def test_pending_jobs_resume_after_restart(tmp_path):
    """A sweep interrupted by a crash resumes from the journal: no job
    is lost, none runs twice, and results land in the shared db."""
    path = str(tmp_path / "jobs.jsonl")
    specs = [make_spec(w, preset="tiny", scale=0.1)
             for w in ("HS", "KM", "BP")]

    store = JobStore(path)
    scheduler = make_scheduler(store, tmp_path=tmp_path,
                               execute=lambda spec: fake_stats(),
                               jobs=1)
    # enqueue WITHOUT starting workers, then "crash"
    for spec in specs:
        scheduler.submit(spec)
    store.close()

    reopened = JobStore(path)
    executed = []

    def execute(spec):
        executed.append(spec["workload"])
        return fake_stats()

    resumed = make_scheduler(reopened, tmp_path=tmp_path,
                             execute=execute, jobs=1)
    resumed.start()
    try:
        wait_for(lambda: reopened.counts()["done"] == 3)
        assert sorted(executed) == ["BP", "HS", "KM"]
        assert resumed.db is not None
        for spec in specs:
            assert resumed.db.get_stats(spec_key(spec)) is not None
    finally:
        resumed.stop()
        reopened.close()
