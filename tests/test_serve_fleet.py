"""The dispatcher + remote-worker fleet: lease protocol, dedup,
crash recovery, and bit-identity with the direct harness.

Workers here run as :class:`FleetWorker` instances on threads (the
protocol neither knows nor cares that production workers are separate
processes — ``scripts/fleet_smoke.py`` and the CI fleet-smoke job
cover the real-subprocess path), talking to a live asyncio server on
an ephemeral port exactly as ``serve worker --connect`` would.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.serve import (FleetWorker, JobStore, Scheduler, ServeClient,
                         ServeError, ServeServer, execute_spec,
                         make_spec)
from repro.stats.collector import RunStats

TINY = make_spec("HS", preset="tiny", scale=0.1, seed=7)


def fake_stats(cycles: int = 42) -> RunStats:
    return RunStats(config_desc="fake", cycles=cycles,
                    counters={"instructions": 1})


def fleet_test(tmp_path, body, *, jobs=0, queue_limit=64,
               lease_duration=300.0, **scheduler_options):
    """Run ``await body(server, call)`` against a live dispatcher.

    Defaults to ``jobs=0`` — the pure-dispatcher configuration whose
    only execution capacity is whatever remote workers the test
    attaches.  ``call(fn, *args)`` runs a blocking client call off
    the event loop.
    """
    async def main():
        store = JobStore(str(tmp_path / "jobs.jsonl"))
        scheduler = Scheduler(store, db=str(tmp_path / "repro.db"),
                              jobs=jobs,
                              queue_limit=queue_limit,
                              poll_interval=0.01,
                              lease_duration=lease_duration,
                              **scheduler_options)
        # short: several tests deliberately leave leased jobs behind,
        # and teardown should not wait out their abandoned waiters
        server = ServeServer(scheduler, port=0, quiet=True,
                             drain_timeout=0.5)
        await server.start()
        loop = asyncio.get_running_loop()

        def call(fn, *args):
            return loop.run_in_executor(None, fn, *args)

        try:
            await body(server, call)
        finally:
            if not server.draining:
                await server.drain()

    asyncio.run(main())


def start_worker(port: int, name: str, **options) -> FleetWorker:
    """A FleetWorker on a daemon thread, tuned for test latency."""
    options.setdefault("poll_interval", 0.01)
    options.setdefault("quiet", True)
    worker = FleetWorker(ServeClient(port=port, retries=2,
                                     sleep=lambda s: None),
                         name=name, **options)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    worker.thread = thread
    return worker


async def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.01)


# ---------------------------------------------------------------------------
# the wire protocol, op by op
# ---------------------------------------------------------------------------

def test_lease_complete_roundtrip_resolves_the_submitter(tmp_path):
    async def body(server, call):
        client = ServeClient(port=server.port)
        accepted = await call(client.submit, dict(TINY), False)
        job = await call(client.lease, "w1")
        assert job["id"] == accepted["job_id"]
        assert job["spec"] == dict(TINY)
        assert job["attempts"] == 1
        # an empty queue leases nothing
        assert await call(client.lease, "w2") is None
        # a persistent connection is one caller's; the blocked
        # waiter gets its own
        waiter = ServeClient(port=server.port)
        pending = call(waiter.submit, dict(TINY))    # coalesces
        fresh = await call(client.complete, job["id"], "w1",
                           fake_stats(), 1.25)
        assert fresh is True
        result = await pending
        assert result["stats"]["cycles"] == 42
        metrics = await call(client.metrics)
        snapshot = metrics["snapshot"]
        assert snapshot["leases"] == 1
        assert snapshot["executed"] == 1
        assert snapshot["jobs_done"] == 1
        # the remote wall time feeds the same latency histograms
        assert metrics["latency"]["job_simulate_ms"]["count"] == 1

    fleet_test(tmp_path, body)


def test_fail_op_retries_then_quarantines(tmp_path):
    async def body(server, call):
        client = ServeClient(port=server.port)
        await call(client.submit, dict(TINY), False)
        job = await call(client.lease, "w1")
        assert await call(client.fail, job["id"], "w1", "boom 1")
        # requeued with backoff, not terminal
        status = await call(client.status, job["id"])
        assert status["job"]["state"] == "pending"
        again = None
        while again is None:
            again = await call(client.lease, "w1")
            await asyncio.sleep(0.01)
        assert again["id"] == job["id"] and again["attempts"] == 2
        assert await call(client.fail, job["id"], "w1", "boom 2")
        assert (await call(client.status, job["id"])
                )["job"]["state"] == "failed"

        def refused():
            with pytest.raises(ServeError, match="quarantined"):
                client.submit(dict(TINY))
        await call(refused)

    fleet_test(tmp_path, body, max_attempts=2, backoff_base=0.01)


def test_stale_fail_and_unknown_job_are_harmless(tmp_path):
    async def body(server, call):
        client = ServeClient(port=server.port)
        await call(client.submit, dict(TINY), False)
        job = await call(client.lease, "w1")
        # a report from a worker that does not hold the lease
        assert await call(client.fail, job["id"], "imposter",
                          "not mine") is False
        assert (await call(client.status, job["id"])
                )["job"]["state"] == "leased"
        def missing():
            with pytest.raises(ServeError, match="not-found"):
                client.complete("j999999", "w1", fake_stats())
        await call(missing)

    fleet_test(tmp_path, body)


def test_heartbeat_extends_and_reports_lost_leases(tmp_path):
    async def body(server, call):
        client = ServeClient(port=server.port)
        await call(client.submit, dict(TINY), False)
        job = await call(client.lease, "w1", 0.15)
        first = job["deadline"]
        deadline = await call(client.heartbeat, job["id"], "w1", 60.0)
        assert deadline > first
        # let the (un-extended-after-this) short story play out: a
        # second worker steals after expiry, the first's heartbeat
        # now reports lease-lost
        server.scheduler.store.heartbeat(job["id"], "w1", 0.05)
        await asyncio.sleep(0.1)
        stolen = await call(client.lease, "w2")
        assert stolen["id"] == job["id"]
        def lost():
            with pytest.raises(ServeError, match="lease-lost"):
                client.heartbeat(job["id"], "w1", 60.0)
        await call(lost)

    fleet_test(tmp_path, body)


def test_lease_refused_while_draining(tmp_path):
    async def body(server, call):
        client = ServeClient(port=server.port, retries=1,
                             sleep=lambda s: None)
        waiter = ServeClient(port=server.port)
        pending = call(waiter.submit, dict(TINY))
        await wait_until(
            lambda: server.scheduler.store.active_count() == 1)
        job = await call(client.lease, "w1")
        # drain blocks on the in-flight waiter; leases are already
        # refused while the lease we hold may still complete
        drainer = asyncio.ensure_future(server.drain())
        await asyncio.sleep(0.05)
        assert server.draining

        def refused():
            with pytest.raises(Exception) as info:
                client.lease("w2")
            assert "draining" in str(info.value)
        await call(refused)
        assert await call(client.complete, job["id"], "w1",
                          fake_stats(), 0.1) is True
        result = await pending
        assert result["stats"]["cycles"] == 42
        await drainer

    fleet_test(tmp_path, body)


# ---------------------------------------------------------------------------
# fleet-wide dedup
# ---------------------------------------------------------------------------

def test_lease_skips_keys_already_in_the_shared_store(tmp_path):
    """A job whose key was finished elsewhere (another fleet member,
    a batch run sharing the database) is completed at lease time,
    never handed to a worker."""
    async def body(server, call):
        client = ServeClient(port=server.port)
        waiter = ServeClient(port=server.port)
        pending = call(waiter.submit, dict(TINY))
        await wait_until(
            lambda: server.scheduler.store.active_count() == 1)
        job = server.scheduler.store.jobs()[0]
        # a second fleet member publishes the result out-of-band
        server.scheduler.db.record(job.key, fake_stats(7))
        assert await call(client.lease, "w1") is None
        result = await pending
        assert result["stats"]["cycles"] == 7
        assert server.scheduler.deduped_results == 1
        # a lease-time dedup answers no submit from the store
        snapshot = server.scheduler.snapshot()
        assert snapshot["cache_hits"] == 0
        assert snapshot["deduped_results"] == 1
        assert (await call(client.status, job.id)
                )["job"]["state"] == "done"

    fleet_test(tmp_path, body)


def test_late_result_after_requeue_is_deduplicated(tmp_path):
    """Slow worker's lease expires, the job re-runs elsewhere; the
    slow worker's eventual result answers fresh=False and changes
    nothing."""
    async def body(server, call):
        client = ServeClient(port=server.port)
        await call(client.submit, dict(TINY), False)
        slow = await call(client.lease, "slow", 0.1)
        await asyncio.sleep(0.15)                  # lease expires
        fast = await call(client.lease, "fast")
        assert fast["id"] == slow["id"]
        assert await call(client.complete, fast["id"], "fast",
                          fake_stats(1), 0.5) is True
        assert await call(client.complete, slow["id"], "slow",
                          fake_stats(1), 9.9) is False
        assert server.scheduler.deduped_results == 1
        assert server.scheduler.executed == 1

    fleet_test(tmp_path, body)


def test_n_clients_same_spec_on_four_workers_one_execution(tmp_path):
    """The acceptance bullet: 8 clients x 1 spec x 4 workers = exactly
    one simulation, every reply byte-identical."""
    executions = []

    def execute(spec):
        executions.append(spec["workload"])
        time.sleep(0.05)               # wide enough to tempt overlap
        return fake_stats()

    async def body(server, call):
        workers = [start_worker(server.port, f"w{i}",
                                execute=execute) for i in range(4)]
        replies, errors = [], []

        def one():
            try:
                replies.append(
                    ServeClient(port=server.port).submit(dict(TINY)))
            except Exception as error:   # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=one) for _ in range(8)]
        for thread in threads:
            thread.start()
        await wait_until(lambda: not any(t.is_alive()
                                         for t in threads))
        assert not errors
        assert executions == ["HS"]                # exactly once
        payloads = {json.dumps(r["stats"], sort_keys=True)
                    for r in replies}
        assert len(payloads) == 1
        for worker in workers:
            worker.stop()

    fleet_test(tmp_path, body)


# ---------------------------------------------------------------------------
# crash recovery, bit-identical
# ---------------------------------------------------------------------------

def test_worker_killed_mid_lease_rerun_is_bit_identical(tmp_path):
    """A worker that dies mid-job never completes its lease; after
    expiry another worker re-runs the job, and the result equals a
    direct ExperimentRunner-path run byte for byte."""
    direct = execute_spec(dict(TINY)).to_dict()

    async def body(server, call):
        client = ServeClient(port=server.port)
        waiter = ServeClient(port=server.port)
        pending = call(waiter.submit, dict(TINY))
        await wait_until(
            lambda: server.scheduler.store.active_count() == 1)
        # the doomed worker leases (short lease), then "dies": it
        # simply never heartbeats, completes, or fails
        doomed = await call(client.lease, "doomed", 0.1)
        assert doomed is not None
        await asyncio.sleep(0.15)
        # a healthy real worker picks the job up after expiry
        worker = start_worker(server.port, "healthy")
        result = await pending
        assert result["stats"] == direct
        job = server.scheduler.store.get(doomed["id"])
        assert job.state == "done" and job.worker == "healthy"
        assert job.attempts == 2
        worker.stop()

    fleet_test(tmp_path, body)


def test_dispatcher_restart_requeues_remote_leases(tmp_path):
    """Kill-and-resume with a remote lease in flight: the journal
    requeues it on reopen and a fresh fleet finishes it, bit-identical
    to the direct run."""
    direct = execute_spec(dict(TINY)).to_dict()

    async def first(server, call):
        client = ServeClient(port=server.port)
        await call(client.submit, dict(TINY), False)
        leased = await call(client.lease, "doomed")
        assert leased is not None          # held across the "crash"

    fleet_test(tmp_path, first)

    async def second(server, call):
        assert server.scheduler.store.counts()["pending"] == 1
        client = ServeClient(port=server.port)
        worker = start_worker(server.port, "healthy")
        await wait_until(
            lambda: server.scheduler.store.counts()["done"] == 1)
        job = server.scheduler.store.jobs()[0]
        stats = server.scheduler.db.get_stats(job.key)
        assert stats.to_dict() == direct
        worker.stop()

    fleet_test(tmp_path, second)


def test_fleet_worker_timeout_and_failure_reporting(tmp_path):
    """A worker whose execution times out (or raises) reports fail;
    the dispatcher's retry policy then quarantines after the last
    attempt."""
    def hang(spec):
        time.sleep(10)
        return fake_stats()              # pragma: no cover

    async def body(server, call):
        client = ServeClient(port=server.port)
        worker = start_worker(server.port, "slow", execute=hang,
                              timeout=0.1, heartbeat_interval=0.02)
        def submit():
            with pytest.raises(ServeError, match="JobTimeout"):
                client.submit(dict(TINY))
        await call(submit)
        assert worker.failed == 1 and worker.executed == 0
        assert server.scheduler.timeouts == 1
        worker.stop()

    fleet_test(tmp_path, body, max_attempts=1)


class StubClient:
    """Just enough of a ServeClient to drive one FleetWorker job."""

    host, port = "stub", 0

    def __init__(self, job):
        self.jobs = [job]
        self.reports = []

    def lease(self, worker, duration=None):
        return self.jobs.pop() if self.jobs else None

    def heartbeat(self, job_id, worker, duration=None):
        self.reports.append(("heartbeat", job_id))
        return 0.0

    def complete(self, job_id, worker, stats, wall_time_s=None):
        self.reports.append(("complete", job_id))
        return True

    def fail(self, job_id, worker, message):
        self.reports.append(("fail", message))
        return True

    def close(self):
        pass


def test_fleet_worker_timeout_fires_before_the_first_heartbeat():
    """The per-job timeout is enforced at its deadline, not at the
    next heartbeat tick (a third of the lease away)."""
    def hang(spec):
        time.sleep(3)
        return fake_stats()              # pragma: no cover

    client = StubClient({"id": "j000001", "key": "0" * 64,
                         "spec": dict(TINY), "attempts": 1})
    worker = FleetWorker(client, name="w1", execute=hang, timeout=0.2,
                         lease_duration=300.0, max_jobs=1, quiet=True)
    started = time.monotonic()
    worker.run()
    assert time.monotonic() - started < 2.0
    [(kind, message)] = client.reports
    assert kind == "fail" and message.startswith("JobTimeout:")


def test_fleet_worker_drain_exit_and_max_jobs(tmp_path):
    done = []

    def execute(spec):
        done.append(spec["workload"])
        return fake_stats()

    async def body(server, call):
        client = ServeClient(port=server.port)
        worker = start_worker(server.port, "w1", execute=execute,
                              max_jobs=2)
        for workload in ("HS", "KM", "BP"):
            await call(client.submit,
                       make_spec(workload, preset="tiny", scale=0.1),
                       False)
        await wait_until(lambda: not worker.thread.is_alive())
        assert worker.executed == 2 and len(done) == 2
        # a second worker exits on its own once the server drains
        straggler = start_worker(server.port, "w2", execute=execute)
        await wait_until(
            lambda: server.scheduler.store.counts()["done"] == 3)
        await server.drain()
        await wait_until(lambda: not straggler.thread.is_alive())

    fleet_test(tmp_path, body)
