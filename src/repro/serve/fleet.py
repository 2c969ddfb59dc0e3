"""The fleet worker: the service's one lease loop.

``gtsc-repro serve worker --connect HOST:PORT`` runs one in its own
process over a :class:`~repro.serve.client.ServeClient`; ``serve
--jobs N`` runs N on threads, each over an in-memory
:class:`~repro.serve.scheduler.LocalLink`.  Either way the worker
leases one job at a time through the same four ops (``lease`` /
``heartbeat`` / ``complete`` / ``fail``), executes it with
:func:`execute_spec`, and reports the outcome.  Separate **processes**
simulate N points concurrently; threads serialize on the GIL, so
remote workers are where the service's throughput scaling comes from.

Division of labour with the dispatcher:

* the **dispatcher** owns policy: dedup, retry/backoff/quarantine
  (a worker's ``fail`` report feeds ``Scheduler.fail``), lease
  expiry, the shared result store, the DB;
* the **worker** owns only execution mechanics: the per-job timeout
  (the simulation runs on a disposable thread, abandoned at the
  deadline), heartbeats while the simulation runs, and honest
  outcome reports.

A worker is therefore entirely disposable.  Kill one mid-job and the
lease expires on the dispatcher, the job requeues, and another worker
re-runs it; if the killed worker was merely slow and its result
arrives late, the dispatcher deduplicates it by run key.  A worker
that loses its lease mid-heartbeat just keeps simulating — completing
is cheaper than wasting the work, and the dispatcher sorts out which
result was the completion of record.

The loop exits on :meth:`stop`, after ``max_jobs`` executions, after
``idle_exit`` seconds with an empty queue, or when the dispatcher
starts draining/disappears (``drain_exit``, default on — a worker
with no dispatcher has nothing to do, and re-dialling forever is an
operator decision, not a default).
"""

from __future__ import annotations

import random
import socket
import sys
import threading
import time
from typing import Callable, Dict, Optional

from repro.config import Consistency, Protocol
from repro.harness.parallel import _simulate_point
from repro.serve.client import (ServeClient, ServeError,
                                ServeUnavailable)
from repro.stats.collector import RunStats


class JobTimeout(RuntimeError):
    """An execution that exceeded the worker's per-job timeout."""


def execute_spec(spec: Dict) -> RunStats:
    """Simulate one validated spec through the batch harness's worker
    entry, so a served job is bit-identical to the same point run by
    ``ParallelRunner`` or ``ExperimentRunner``."""
    point = (spec["workload"], Protocol(spec["protocol"]),
             Consistency(spec["consistency"]),
             tuple(sorted(spec["overrides"].items())))
    payload = _simulate_point(spec["preset"], spec["scale"],
                              spec["seed"], (), point)
    return RunStats.from_dict(payload)


def default_worker_name() -> str:
    """``<hostname>-<pid>`` — unique per live process, stable within
    one, which is all lease identity needs."""
    import os
    return f"{socket.gethostname()}-{os.getpid()}"


class FleetWorker:
    """One lease loop against one dispatcher (``client`` is a
    :class:`ServeClient`, or a ``LocalLink`` in-process)."""

    def __init__(self, client: ServeClient,
                 name: Optional[str] = None,
                 execute: Callable[[Dict], RunStats] = execute_spec,
                 *, timeout: Optional[float] = None,
                 lease_duration: Optional[float] = None,
                 heartbeat_interval: Optional[float] = None,
                 poll_interval: float = 0.5,
                 max_jobs: Optional[int] = None,
                 idle_exit: Optional[float] = None,
                 drain_exit: bool = True,
                 rng: Optional[random.Random] = None,
                 quiet: bool = False) -> None:
        self.client = client
        self.name = name or default_worker_name()
        self.execute = execute
        self.timeout = timeout
        self.lease_duration = lease_duration
        if heartbeat_interval is None:
            base = lease_duration if lease_duration else 300.0
            heartbeat_interval = max(0.05, base / 3)
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.max_jobs = max_jobs
        self.idle_exit = idle_exit
        self.drain_exit = drain_exit
        self.quiet = quiet
        self._rng = rng if rng is not None else random.Random()
        self._stopping = False
        #: jobs executed / failed / leases granted to this worker
        self.executed = 0
        self.failed = 0
        self.leases = 0

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[worker {self.name}] {message}",
                  file=sys.stderr, flush=True)

    def stop(self) -> None:
        """Ask the loop to exit after the current job.

        Only sets a flag, so ``serve worker`` calls it from its SIGTERM
        handler: a handler runs on the main thread between any two
        lines, and setting an ``Event`` there wedges for good if the
        loop was inside ``Event.wait`` holding the event's lock.  An
        idle loop sees the flag at its next poll.
        """
        self._stopping = True

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Lease-execute-report until told to stop; returns jobs run."""
        self._log(f"connected to {self.client.host}:{self.client.port}")
        idle_since: Optional[float] = None
        while not self._stopping:
            if self.max_jobs is not None and \
                    self.executed + self.failed >= self.max_jobs:
                self._log(f"max-jobs reached ({self.max_jobs})")
                break
            try:
                job = self.client.lease(self.name,
                                        self.lease_duration)
            except (ServeError, ServeUnavailable) as error:
                if self.drain_exit:
                    self._log(f"dispatcher unavailable ({error}); "
                              f"exiting")
                    break
                job = None
            if job is None:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif self.idle_exit is not None and \
                        now - idle_since >= self.idle_exit:
                    self._log(f"idle for {self.idle_exit}s; exiting")
                    break
                # jittered so a fleet's pollers don't phase-lock
                time.sleep(self.poll_interval *
                           (0.5 + self._rng.random()))
                continue
            idle_since = None
            self.leases += 1
            self._run_one(job)
        self._log(f"done: {self.executed} executed, "
                  f"{self.failed} failed, {self.leases} lease(s)")
        self.client.close()
        return self.executed

    # ------------------------------------------------------------------
    def _run_one(self, job: Dict) -> None:
        job_id, key = job["id"], job["key"]
        self._log(f"leased {job_id} ({key[:12]}…, "
                  f"attempt {job['attempts']})")
        started = time.perf_counter()
        try:
            stats = self._execute_with_heartbeats(job_id, job["spec"])
        except Exception as error:
            wall = time.perf_counter() - started
            message = f"{type(error).__name__}: {error}"
            self.failed += 1
            self._log(f"{job_id} failed after {wall:.2f}s: {message}")
            try:
                self.client.fail(job_id, self.name, message)
            except (ServeError, ServeUnavailable) as report_error:
                # the lease will expire and requeue on its own
                self._log(f"could not report failure for {job_id}: "
                          f"{report_error}")
            return
        wall = time.perf_counter() - started
        self.executed += 1
        try:
            fresh = self.client.complete(job_id, self.name, stats,
                                         wall_time_s=wall)
        except (ServeError, ServeUnavailable) as report_error:
            self._log(f"could not report result for {job_id}: "
                      f"{report_error}")
            return
        suffix = "" if fresh else " (deduplicated late result)"
        self._log(f"{job_id} completed in {wall:.2f}s{suffix}")

    def _execute_with_heartbeats(self, job_id: str,
                                 spec: Dict) -> RunStats:
        """Run one spec on a disposable thread, heartbeating while it
        goes; raises :class:`JobTimeout` past the per-job timeout."""
        holder: list = []

        def target() -> None:
            try:
                holder.append(("ok", self.execute(spec)))
            except Exception as error:     # delivered to the joiner
                holder.append(("err", error))

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        deadline = None if self.timeout is None else \
            time.monotonic() + self.timeout
        while True:
            wait = self.heartbeat_interval
            if deadline is not None:
                # wake at the deadline, not at the next heartbeat tick
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            thread.join(wait)
            if not thread.is_alive():
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise JobTimeout(
                    f"execution exceeded {self.timeout}s")
            try:
                self.client.heartbeat(job_id, self.name,
                                      self.lease_duration)
            except (ServeError, ServeUnavailable):
                # lease lost or dispatcher gone; keep simulating —
                # a finished result is still worth reporting, and
                # complete() dedups it if the job moved on
                pass
        kind, value = holder[0]
        if kind == "err":
            raise value
        return value
