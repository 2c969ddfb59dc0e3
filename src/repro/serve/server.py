"""The asyncio TCP front end: newline-delimited JSON over a socket.

Wire protocol (one JSON object per line, both directions; a
connection may carry any number of requests)::

    -> {"v": 1, "op": "submit", "spec": {...}, "wait": true}
    <- {"v": 1, "ok": true, "kind": "result", "spec": {...},
        "key": "...", "cached": false, "coalesced": false,
        "job_id": "j000001", "stats": {...}}

    -> {"v": 1, "op": "healthz"}      # liveness + drain state
    -> {"v": 1, "op": "metrics"}      # counters, gauges, time-series
    -> {"v": 1, "op": "jobs"}         # queue listing + state counts
    -> {"v": 1, "op": "status", "job_id": "j000001"}

Remote workers (``serve worker --connect``) drive the fleet half of
the protocol — leasing jobs out of the dispatcher's queue over the
wire and reporting outcomes back::

    -> {"v": 1, "op": "lease", "worker": "host-123", "duration": 300}
    <- {"v": 1, "ok": true, "kind": "lease", "job": {...} | null}

    -> {"v": 1, "op": "heartbeat", "job_id": "j000001",
        "worker": "host-123", "duration": 300}
    -> {"v": 1, "op": "complete", "job_id": "j000001",
        "worker": "host-123", "stats": {...}, "wall_time_s": 1.25}
    <- {"v": 1, "ok": true, "kind": "completed", "fresh": true}
    -> {"v": 1, "op": "fail", "job_id": "j000001",
        "worker": "host-123", "message": "..."}

A ``lease`` during drain answers ``"error": "draining"`` (workers
idle or exit; in-flight leases may still ``complete``).  A
``heartbeat`` or ``complete`` whose lease has expired and moved on is
answered with ``"error": "lease-lost"`` / ``"fresh": false``
respectively — the late result is deduplicated by run key, never
discarded.

Refusals are structured, never silence: a full queue answers
``{"ok": false, "error": "busy", "retry_after": s}`` (the client's
backoff honours ``retry_after``), a draining server answers the same
shape with ``"error": "draining"``, and a malformed request gets
``"error": "bad-request"`` with a message, and an op the database
cannot take (a closed, locked or damaged file) answers
``"error": "store-error"`` — the connection stays usable afterwards.

Metrics ride the PR-2 observability machinery rather than a parallel
implementation: request outcomes bump a
:class:`~repro.stats.collector.StatsCollector` and a
:class:`~repro.obs.metrics.MetricsRegistry` samples it (queue depth
and in-flight waiters as gauges) once per ``metrics`` request, so the
endpoint returns the same time-series shape a simulation run embeds
in ``RunStats.timeseries``.

Every op that reads or writes the database runs in the loop's
executor, except ``submit``: its result lookup answers a cached point
on the loop, without a thread hop.

SIGTERM/SIGINT trigger a graceful drain: new submits are refused,
in-flight executions finish and answer their waiters, the listener
and the database close, and the process exits — PENDING jobs stay in
the database for the next start.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sqlite3
import sys
import time
from typing import Dict, Optional

from repro.obs import MetricsRegistry
from repro.serve import schema
from repro.serve.scheduler import Busy, Quarantined, Scheduler
from repro.stats.collector import RunStats, StatsCollector

#: counter names sampled into the service time-series
SERVE_COUNTERS = (
    "serve_requests",
    "serve_submits",
    "serve_results",
    "serve_cache_hits",
    "serve_coalesced",
    "serve_rejected",
    "serve_errors",
    "serve_leases",
    "serve_remote_results",
)


class ServeServer:
    """One scheduler behind one listening socket."""

    def __init__(self, scheduler: Scheduler, host: str = "127.0.0.1",
                 port: int = 8642, drain_timeout: float = 30.0,
                 quiet: bool = False) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self.quiet = quiet
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._started = time.monotonic()
        self._drained = asyncio.Event()
        self._tick = 0
        self.collector = StatsCollector()
        self.metrics = MetricsRegistry(interval=1,
                                       counters=list(SERVE_COUNTERS))
        self.metrics.bind(self.collector)
        self.metrics.add_gauge("queue_depth",
                               scheduler.store.active_count)
        self.metrics.add_gauge("inflight", scheduler.inflight)

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[serve] {message}", file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the in-process workers."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        self._log(f"listening on {self.host}:{self.port} "
                  f"(queue limit {self.scheduler.queue_limit}, "
                  f"{self.scheduler.jobs} worker(s))")

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Serve until a drain is requested (SIGTERM/SIGINT)."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        signum, lambda s=signum:
                        asyncio.ensure_future(self.drain(s)))
                except NotImplementedError:  # pragma: no cover
                    pass                     # non-unix event loops
        await self._drained.wait()

    async def drain(self, signum: Optional[int] = None) -> None:
        """Refuse new work, let in-flight work answer, then stop.

        Idempotent — a second signal while draining is a no-op rather
        than a hard kill (operators who want that can escalate to
        SIGKILL; with a results database even that loses nothing).
        """
        if self.draining:
            return
        self.draining = True
        name = signal.Signals(signum).name if signum else "request"
        self._log(f"drain started ({name}): refusing new submits, "
                  f"{self.scheduler.inflight()} waiter(s) in flight")
        deadline = time.monotonic() + self.drain_timeout
        while self.scheduler.inflight() and \
                time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        leftover = self.scheduler.inflight()
        await self._off_loop(self.scheduler.stop)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        counts = self.scheduler.store.counts()
        self.scheduler.store.close()
        self._log(f"drain complete: {counts['done']} done, "
                  f"{counts['pending']} pending, "
                  f"{leftover} waiter(s) abandoned")
        self._drained.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                reply = await self._dispatch(line)
                writer.write(json.dumps(
                    reply, sort_keys=True,
                    separators=(",", ":")).encode() + b"\n")
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(self, line: bytes) -> Dict:
        self.collector.add("serve_requests")
        try:
            request = json.loads(line)
        except ValueError:
            return self._error("bad-request", "request is not JSON")
        if not isinstance(request, dict):
            return self._error("bad-request",
                               "request must be an object")
        version = request.get("v", schema.PROTOCOL_VERSION)
        if version != schema.PROTOCOL_VERSION:
            return self._error(
                "unsupported-version",
                f"server speaks v{schema.PROTOCOL_VERSION}, "
                f"request is v{version}")
        op = request.get("op")
        handler = {"submit": self._submit, "healthz": self._healthz,
                   "metrics": self._metrics, "jobs": self._jobs,
                   "status": self._status, "lease": self._lease,
                   "complete": self._complete, "fail": self._fail,
                   "heartbeat": self._heartbeat}.get(op)
        if handler is None:
            return self._error("bad-request", f"unknown op {op!r}")
        try:
            return await handler(request)
        except sqlite3.Error as error:
            return self._error("store-error",
                               f"{type(error).__name__}: {error}")

    @staticmethod
    async def _off_loop(fn, *args):
        """``fn(*args)`` in the loop's executor: database calls wait on
        its lock and on sqlite's, which must not stall the loop."""
        return await asyncio.get_running_loop().run_in_executor(
            None, fn, *args)

    def _error(self, error: str, message: str = "",
               **extra) -> Dict:
        self.collector.add("serve_errors")
        reply = {"v": schema.PROTOCOL_VERSION, "ok": False,
                 "error": error}
        if message:
            reply["message"] = message
        reply.update(extra)
        return reply

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    async def _submit(self, request: Dict) -> Dict:
        if self.draining:
            self.collector.add("serve_rejected")
            return self._error("draining", "server is draining",
                               retry_after=self.scheduler.retry_after)
        try:
            spec = schema.validate_spec(request.get("spec"))
        except schema.SpecError as error:
            return self._error("bad-request", str(error))
        self.collector.add("serve_submits")
        try:
            submission = self.scheduler.submit(spec)
        except Busy as busy:
            self.collector.add("serve_rejected")
            return self._error("busy", str(busy),
                               retry_after=busy.retry_after)
        except Quarantined as quarantined:
            return self._error("quarantined", str(quarantined))
        if submission.cached:
            self.collector.add("serve_cache_hits")
        if submission.coalesced:
            self.collector.add("serve_coalesced")
        if not request.get("wait", True):
            return {"v": schema.PROTOCOL_VERSION, "ok": True,
                    "kind": "accepted", "key": submission.key,
                    "job_id": submission.job_id,
                    "cached": submission.cached,
                    "coalesced": submission.coalesced}
        try:
            stats = await asyncio.wrap_future(submission.future)
        except Quarantined as quarantined:
            return self._error("failed", str(quarantined))
        self.collector.add("serve_results")
        reply = schema.result_envelope(
            spec, stats, key=submission.key,
            job_id=submission.job_id, cached=submission.cached,
            coalesced=submission.coalesced)
        reply["ok"] = True
        # cache hits have no job; the field is still always present
        reply.setdefault("job_id", None)
        return reply

    async def _healthz(self, _request: Dict) -> Dict:
        counts = await self._off_loop(self.scheduler.store.counts)
        return {"v": schema.PROTOCOL_VERSION, "ok": True,
                "status": "draining" if self.draining else "serving",
                "uptime_s": round(time.monotonic() - self._started, 3),
                "queue_depth": counts["pending"] + counts["leased"],
                "queue_limit": self.scheduler.queue_limit,
                "workers": self.scheduler.jobs,
                "jobs": counts}

    async def _metrics(self, request: Dict) -> Dict:
        fmt = request.get("format", "json")
        if fmt not in ("json", "prometheus"):
            return self._error("bad-request",
                               f"unknown metrics format {fmt!r} "
                               f"(known: json, prometheus)")
        self._tick += 1
        return await self._off_loop(self._sample_metrics, self._tick,
                                    fmt)

    def _sample_metrics(self, tick: int, fmt: str) -> Dict:
        # the queue-depth gauge and the snapshot read the database
        self.metrics.on_cycle(tick)
        if fmt == "prometheus":
            return {"v": schema.PROTOCOL_VERSION, "ok": True,
                    "format": "prometheus",
                    "text": self._prometheus_text()}
        return {"v": schema.PROTOCOL_VERSION, "ok": True,
                "snapshot": self.scheduler.snapshot(),
                "latency": self.scheduler.latency_summary(),
                "timeseries": self.metrics.to_dict()}

    def _prometheus_text(self) -> str:
        """Everything ``metrics`` exports, as one scrapeable document."""
        from repro.obs.prom import render_prometheus, split_snapshot

        split = split_snapshot(self.scheduler.snapshot())
        counters = dict(split["counters"])
        counters.update(self.collector.snapshot())
        gauges = dict(split["gauges"])
        gauges["queue_depth"] = self.scheduler.store.active_count()
        gauges["inflight"] = self.scheduler.inflight()
        gauges["draining"] = int(self.draining)
        gauges["uptime_seconds"] = round(
            time.monotonic() - self._started, 3)
        gauges["workers"] = self.scheduler.jobs
        return render_prometheus(
            counters=counters, gauges=gauges,
            summaries=self.scheduler.latency_summary())

    async def _jobs(self, _request: Dict) -> Dict:
        store = self.scheduler.store
        jobs = await self._off_loop(store.jobs)
        return {"v": schema.PROTOCOL_VERSION, "ok": True,
                "jobs": [job.to_dict() for job in jobs],
                "counts": await self._off_loop(store.counts),
                "latency": self.scheduler.latency_summary()}

    async def _status(self, request: Dict) -> Dict:
        job = await self._off_loop(self.scheduler.store.get,
                                   str(request.get("job_id")))
        if job is None:
            return self._error("not-found",
                               f"no job {request.get('job_id')!r}")
        return {"v": schema.PROTOCOL_VERSION, "ok": True,
                "job": job.to_dict()}

    # ------------------------------------------------------------------
    # fleet ops (remote workers)
    # ------------------------------------------------------------------
    def _fleet_identity(self, request: Dict):
        """Validate the fields every fleet op carries.

        Returns ``(worker, duration, error_reply)``; exactly one of
        the pair (identity, error) is meaningful.
        """
        worker = request.get("worker")
        if not isinstance(worker, str) or not worker:
            return None, None, self._error(
                "bad-request", "worker must be a non-empty string")
        duration = request.get(
            "duration", self.scheduler.lease_duration)
        if not isinstance(duration, (int, float)) or duration <= 0:
            return None, None, self._error(
                "bad-request", "duration must be a positive number")
        return worker, float(duration), None

    async def _lease(self, request: Dict) -> Dict:
        worker, duration, bad = self._fleet_identity(request)
        if bad is not None:
            return bad
        if self.draining:
            return self._error("draining", "server is draining",
                               retry_after=self.scheduler.retry_after)
        job = await self._off_loop(self.scheduler.lease, worker,
                                   duration)
        if job is not None:
            self.collector.add("serve_leases")
        return {"v": schema.PROTOCOL_VERSION, "ok": True,
                "kind": "lease",
                "job": job.to_dict() if job is not None else None}

    async def _complete(self, request: Dict) -> Dict:
        worker, _, bad = self._fleet_identity(request)
        if bad is not None:
            return bad
        job_id = str(request.get("job_id"))
        try:
            stats = RunStats.from_dict(request.get("stats"))
        except (ValueError, KeyError, TypeError, AttributeError) \
                as error:
            return self._error(
                "bad-request", f"stats payload is not a RunStats "
                f"dict: {type(error).__name__}: {error}")
        wall_time = request.get("wall_time_s")
        if wall_time is not None and \
                not isinstance(wall_time, (int, float)):
            return self._error("bad-request",
                               "wall_time_s must be a number")
        try:
            fresh = await self._off_loop(self.scheduler.complete,
                                         job_id, worker, stats,
                                         wall_time)
        except KeyError:
            return self._error("not-found", f"no job {job_id!r}")
        self.collector.add("serve_remote_results")
        if fresh:
            self.collector.add("serve_results")
        return {"v": schema.PROTOCOL_VERSION, "ok": True,
                "kind": "completed", "job_id": job_id,
                "fresh": fresh}

    async def _fail(self, request: Dict) -> Dict:
        worker, _, bad = self._fleet_identity(request)
        if bad is not None:
            return bad
        job_id = str(request.get("job_id"))
        message = str(request.get("message", "worker-reported failure"))
        try:
            applied = await self._off_loop(self.scheduler.fail, job_id,
                                           worker, message)
        except KeyError:
            return self._error("not-found", f"no job {job_id!r}")
        return {"v": schema.PROTOCOL_VERSION, "ok": True,
                "kind": "failed", "job_id": job_id,
                "applied": applied}

    async def _heartbeat(self, request: Dict) -> Dict:
        worker, duration, bad = self._fleet_identity(request)
        if bad is not None:
            return bad
        job_id = str(request.get("job_id"))
        try:
            job = await self._off_loop(self.scheduler.heartbeat, job_id,
                                       worker, duration)
        except KeyError:
            return self._error("not-found", f"no job {job_id!r}")
        except ValueError as error:
            return self._error("lease-lost", str(error))
        return {"v": schema.PROTOCOL_VERSION, "ok": True,
                "kind": "heartbeat", "job_id": job_id,
                "deadline": job.deadline}
