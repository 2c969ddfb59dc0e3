"""The asyncio TCP server: protocol, backpressure, drain, endpoints.

Each test spins a real server on an ephemeral port inside
``asyncio.run``; blocking client calls go through the default
executor so the event loop keeps serving.
"""

from __future__ import annotations

import asyncio
import json
import sqlite3
import threading

import pytest

from repro.db.store import ResultsDB
from repro.serve import (Scheduler, ServeClient, ServeError, ServeServer,
                         make_spec)
from repro.serve.jobs import JobStore
from repro.stats.collector import RunStats

TINY = make_spec("HS", preset="tiny", scale=0.1, seed=7)


def fake_stats(cycles: int = 42) -> RunStats:
    return RunStats(config_desc="fake", cycles=cycles,
                    counters={"instructions": 1})


def serve_test(tmp_path, body, *, execute=None, jobs=1,
               queue_limit=64, drain_timeout=10.0,
               **scheduler_options):
    """Run ``await body(server, call)`` against a live server.

    ``call(fn, *args)`` runs a blocking client call off the loop.
    """
    async def main():
        options = dict(scheduler_options)
        options.setdefault("poll_interval", 0.01)
        if execute is not None:
            options["execute"] = execute
        scheduler = Scheduler(db=str(tmp_path / "repro.db"),
                              jobs=jobs,
                              queue_limit=queue_limit, **options)
        server = ServeServer(scheduler, port=0, quiet=True,
                             drain_timeout=drain_timeout)
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


# ---------------------------------------------------------------------------
# the happy path
# ---------------------------------------------------------------------------

def test_submit_then_cache_hit(tmp_path):
    async def body(server, call):
        client = ServeClient(port=server.port)
        first = await call(client.submit, dict(TINY))
        assert first["ok"] and not first["cached"]
        assert first["stats"]["cycles"] == 42
        second = await call(client.submit, dict(TINY))
        assert second["cached"] and second["job_id"] is None
        assert second["stats"] == first["stats"]
        assert second["key"] == first["key"]

    serve_test(tmp_path, body, execute=lambda spec: fake_stats())


def test_no_wait_submit_is_accepted_then_queryable(tmp_path):
    async def body(server, call):
        client = ServeClient(port=server.port)
        reply = await call(client.submit, dict(TINY), False)
        assert reply["kind"] == "accepted"
        job_id = reply["job_id"]
        for _ in range(200):
            status = await call(client.status, job_id)
            if status["job"]["state"] == "done":
                break
            await asyncio.sleep(0.02)
        assert status["job"]["state"] == "done"
        listing = await call(client.jobs)
        assert listing["counts"]["done"] == 1

    serve_test(tmp_path, body, execute=lambda spec: fake_stats())


def test_healthz_and_metrics_shapes(tmp_path):
    async def body(server, call):
        client = ServeClient(port=server.port)
        health = await call(client.healthz)
        assert health["status"] == "serving"
        assert health["queue_limit"] == 64 and health["workers"] == 1
        await call(client.submit, dict(TINY))
        metrics = await call(client.metrics)
        snapshot = metrics["snapshot"]
        assert snapshot["submits"] == 1
        assert snapshot["executed"] == 1
        assert snapshot["jobs_done"] == 1
        # the time-series rides the repro.obs MetricsRegistry shape
        series = metrics["timeseries"]
        assert "serve_submits" in series["columns"]
        assert "queue_depth" in series["columns"]
        assert series["samples"][-1]["serve_submits"] == 1

    serve_test(tmp_path, body, execute=lambda spec: fake_stats())


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

def raw_roundtrip(port: int, payload) -> dict:
    """One request with no client-side retry smoothing."""
    client = ServeClient(port=port, retries=1)
    return client._roundtrip(payload)


def test_backpressure_replies_busy_with_retry_after(tmp_path):
    gate = threading.Event()

    def execute(spec):
        gate.wait(10)
        return fake_stats()

    async def body(server, call):
        client = ServeClient(port=server.port)
        await call(client.submit, make_spec("HS", preset="tiny",
                                            scale=0.1), False)
        reply = await call(
            raw_roundtrip, server.port,
            {"v": 1, "op": "submit", "wait": False,
             "spec": make_spec("KM", preset="tiny", scale=0.1)})
        assert reply["ok"] is False and reply["error"] == "busy"
        assert reply["retry_after"] == 1.0
        # identical key still coalesces through the full queue
        dup = await call(client.submit, make_spec("HS", preset="tiny",
                                                  scale=0.1), False)
        assert dup["coalesced"]
        gate.set()

    serve_test(tmp_path, body, execute=execute, queue_limit=1)


def test_malformed_requests_get_structured_errors(tmp_path):
    async def body(server, call):
        port = server.port
        not_json = await call(raw_roundtrip, port, {"op": "submit"})
        assert not_json["error"] == "bad-request"       # missing spec
        unknown = await call(raw_roundtrip, port, {"op": "dance"})
        assert unknown["error"] == "bad-request"
        future_v = await call(raw_roundtrip, port,
                              {"v": 99, "op": "healthz"})
        assert future_v["error"] == "unsupported-version"
        bad_spec = await call(
            raw_roundtrip, port,
            {"op": "submit", "spec": {"workload": "NOPE"}})
        assert bad_spec["error"] == "bad-request"
        assert "NOPE" in bad_spec["message"]
        missing = await call(raw_roundtrip, port,
                             {"op": "status", "job_id": "j999999"})
        assert missing["error"] == "not-found"
        # the connection-level path survives raw garbage too
        def null_op():
            client = ServeClient(port=port, retries=1)
            with pytest.raises(ServeError, match="bad-request"):
                client.request({"op": None})

        await call(null_op)

    serve_test(tmp_path, body, execute=lambda spec: fake_stats())


def test_submit_the_database_cannot_take_is_refused(tmp_path):
    """With the queue in the database, a submit it cannot write gets a
    structured refusal, and the connection serves the next request."""
    async def body(server, call):
        def locked(*args, **kwargs):
            raise sqlite3.OperationalError("database is locked")

        server.scheduler.store.submit = locked
        client = ServeClient(port=server.port, retries=1)
        with pytest.raises(ServeError, match="store-error.*locked"):
            await call(client.submit, dict(TINY))
        health = await call(client.healthz)
        assert health["ok"] and health["jobs"]["pending"] == 0

    serve_test(tmp_path, body, execute=lambda spec: fake_stats())


def test_client_raises_on_quarantined_failure(tmp_path):
    def execute(spec):
        raise RuntimeError("always broken")

    async def body(server, call):
        client = ServeClient(port=server.port)

        def submit():
            with pytest.raises(ServeError, match="always broken"):
                client.submit(dict(TINY))

        await call(submit)
        reply = await call(raw_roundtrip, server.port,
                           {"v": 1, "op": "submit",
                            "spec": dict(TINY), "wait": True})
        assert reply["error"] == "quarantined"

    serve_test(tmp_path, body, execute=execute, max_attempts=1,
               backoff_base=0.01)


# ---------------------------------------------------------------------------
# drain
# ---------------------------------------------------------------------------

def test_drain_finishes_inflight_then_refuses(tmp_path):
    gate = threading.Event()

    def execute(spec):
        gate.wait(10)
        return fake_stats()

    async def body(server, call):
        client = ServeClient(port=server.port)
        pending = call(client.submit, dict(TINY))    # blocks on gate
        while not server.scheduler.inflight():
            await asyncio.sleep(0.01)
        drainer = asyncio.ensure_future(server.drain())
        await asyncio.sleep(0.05)
        assert server.draining
        health = await call(ServeClient(port=server.port).healthz)
        assert health["status"] == "draining"
        refused = await call(raw_roundtrip, server.port,
                             {"v": 1, "op": "submit",
                              "spec": dict(TINY)})
        assert refused["error"] == "draining"
        gate.set()                     # let the in-flight job finish
        result = await pending
        assert result["ok"] and result["stats"]["cycles"] == 42
        await drainer

    serve_test(tmp_path, body, execute=execute)
    # the drain closed the server's handle on the database
    store = JobStore(ResultsDB(str(tmp_path / "repro.db")))
    assert store.counts()["done"] == 1
    store.close()


def test_drain_journals_pending_jobs_for_the_next_process(tmp_path):
    """SIGTERM mid-sweep loses nothing: jobs not yet executed stay
    PENDING in the database, a fresh server picks them up, and no job
    runs twice across the two processes."""
    import time as _time

    executed = []

    def execute(spec):
        _time.sleep(0.3)               # a "long" simulation
        executed.append(spec["workload"])
        return fake_stats()

    async def body(server, call):
        client = ServeClient(port=server.port)
        for workload in ("HS", "KM", "BP"):
            reply = await call(
                client.submit,
                make_spec(workload, preset="tiny", scale=0.1), False)
            assert reply["ok"]
        # drain immediately: the tiny drain_timeout abandons the
        # waiters, the single worker finishes at most its current
        # job, and the rest must survive as PENDING rows
        await server.drain()

    serve_test(tmp_path, body, execute=execute, jobs=1,
               drain_timeout=0.05)
    store = JobStore(ResultsDB(str(tmp_path / "repro.db")))
    counts = store.counts()
    assert counts["done"] + counts["pending"] == 3     # zero lost
    assert counts["done"] == len(executed)
    assert counts["failed"] == 0 and counts["leased"] == 0
    ids = [job.id for job in store.jobs()]
    assert len(ids) == len(set(ids)) == 3              # zero duplicated
    store.close()

    async def resume(server, call):
        while server.scheduler.store.counts()["done"] < 3:
            await asyncio.sleep(0.02)

    def finish(spec):
        executed.append(spec["workload"])
        return fake_stats()

    serve_test(tmp_path, resume, execute=finish)
    final = JobStore(ResultsDB(str(tmp_path / "repro.db")))
    assert final.counts()["done"] == 3
    # each workload simulated exactly once across both processes
    assert sorted(executed) == ["BP", "HS", "KM"]
    final.close()


# ---------------------------------------------------------------------------
# acceptance: real simulations over the wire
# ---------------------------------------------------------------------------

def test_eight_wire_clients_one_simulation_bit_identical(tmp_path):
    from repro.serve import execute_spec

    direct = execute_spec(dict(TINY)).to_dict()

    async def body(server, call):
        replies = []
        errors = []

        def one():
            try:
                replies.append(
                    ServeClient(port=server.port).submit(dict(TINY)))
            except Exception as error:   # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=one) for _ in range(8)]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            await asyncio.sleep(0.02)
        assert not errors
        assert server.scheduler.executed == 1
        payloads = {json.dumps(r["stats"], sort_keys=True)
                    for r in replies}
        assert payloads == {json.dumps(direct, sort_keys=True)}

    serve_test(tmp_path, body, jobs=2)
