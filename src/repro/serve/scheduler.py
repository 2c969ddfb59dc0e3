"""Single-flight scheduling: N identical submissions, one simulation.

Simulations are pure functions of their spec (that is what makes a
stored result sound to reuse), so the scheduler treats the
:func:`~repro.serve.schema.spec_key` digest as the unit of work and
enforces one invariant: **at any moment, at most one execution per
key exists anywhere in the fleet**.  A submission resolves through
the first of:

1. **store** — the key already has a row in the results database
   (:class:`~repro.db.store.ResultsDB`; from a previous service run,
   another fleet member, *or* any CLI/harness run that shared the
   database): the result is returned immediately, no job;
2. **quarantine** — the key recently failed terminally: the recorded
   error is raised immediately instead of re-burning workers;
3. **coalesce** — a job for the key is already queued or running: the
   caller is attached to the existing job's future;
4. **enqueue** — a new job is journalled and idle workers are woken;
   this is the only path that can be refused for backpressure
   (:class:`Busy`), because attaching a waiter or reading the store
   costs nothing.

Dedup state is **sharded by key**: the waiter-future map is split
over ``shards`` independent locks (a key's shard is a prefix of its
hex digest), so thousands of concurrent submissions of *distinct*
points do not serialize on one lock — only identical points contend,
and those are exactly the ones that must.  The queue-occupancy limit
moved into :meth:`JobStore.submit` so backpressure stays exact
without a global lock around the check-then-enqueue.

Every execution is a :class:`~repro.serve.fleet.FleetWorker` calling
:meth:`lease`, :meth:`heartbeat`, :meth:`complete` and :meth:`fail`:
``serve worker --connect`` processes over the wire, the ``jobs``
in-process workers through a :class:`LocalLink`.  :meth:`complete` is
the only place a result is published (results DB, then waiters);
:meth:`fail` is the only place the retry policy runs — requeue with
jittered exponential backoff until ``max_attempts`` lease grants are
used up, then FAILED plus a ``quarantine_ttl`` quarantine of the key,
so resubmitting a deterministic crash fails fast.

Store trouble never fails a job: a read that raises warns and counts
as a miss, and a write that raises warns and the result still reaches
its waiters.

Waiters hold :class:`concurrent.futures.Future` objects resolved from
worker threads (or the server's executor for remote completions); the
asyncio server awaits them via ``asyncio.wrap_future`` without
blocking the event loop.
"""

from __future__ import annotations

import random
import threading
import time
import warnings
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.serve import schema
from repro.serve.client import ServeError
from repro.serve.fleet import FleetWorker, JobTimeout, execute_spec
from repro.serve.jobs import Job, JobStore, LEASED
from repro.stats.collector import RunStats
from repro.stats.histogram import HistogramSet


class Busy(Exception):
    """Queue full — retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"queue full, retry after {retry_after:.1f}s")
        self.retry_after = retry_after


class Quarantined(Exception):
    """The identical point failed terminally moments ago."""


@dataclass
class Submission:
    """How one submit was satisfied, plus the future of its result."""

    key: str
    job_id: Optional[str]        # None when served straight from the db
    cached: bool
    coalesced: bool
    future: "Future[RunStats]"


class LocalLink:
    """The :class:`ServeClient` ops a :class:`FleetWorker` uses, as
    calls on the scheduler; ``lease`` long-polls on its wake event so
    an idle in-process worker starts a new submit at once."""

    host, port = "in-process", 0

    def __init__(self, scheduler: "Scheduler") -> None:
        self.scheduler = scheduler

    def lease(self, worker: str, duration: float) -> Optional[Dict]:
        scheduler = self.scheduler
        job = scheduler.lease(worker, duration)
        if job is None:
            scheduler._wake.wait(scheduler.poll_interval)
            scheduler._wake.clear()
            return None
        return job.to_dict()

    def heartbeat(self, job_id: str, worker: str,
                  duration: float) -> float:
        try:
            return self.scheduler.heartbeat(job_id, worker,
                                            duration).deadline
        except ValueError as error:
            raise ServeError({"error": "lease-lost",
                              "message": str(error)}) from error

    def complete(self, job_id: str, worker: str, stats: RunStats,
                 wall_time_s: Optional[float] = None) -> bool:
        return self.scheduler.complete(job_id, worker, stats,
                                       wall_time_s)

    def fail(self, job_id: str, worker: str, message: str) -> bool:
        return self.scheduler.fail(job_id, worker, message)

    def close(self) -> None:
        pass


class Scheduler:
    """Owns the job journal, the results database (``db``: a
    :class:`~repro.db.store.ResultsDB` or a path to open one; None
    stores nothing), the retry policy and the ``jobs`` in-process
    workers (``execute``/``timeout`` configure them; ``jobs=0`` leaves
    all executing to remote workers).  ``clock``/``rng`` are
    injectable for deterministic tests.
    """

    def __init__(self, store: JobStore,
                 jobs: int = 1, queue_limit: int = 64,
                 retry_after: float = 1.0,
                 db=None, shards: int = 16, *,
                 execute: Callable[[Dict], RunStats] = execute_spec,
                 timeout: Optional[float] = None,
                 max_attempts: int = 3,
                 backoff_base: float = 0.5,
                 backoff_cap: float = 30.0,
                 lease_duration: float = 300.0,
                 quarantine_ttl: float = 60.0,
                 poll_interval: float = 0.05,
                 clock: Callable[[], float] = time.time,
                 rng: Optional[random.Random] = None) -> None:
        if jobs < 0:
            raise ValueError("jobs must be >= 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.store = store
        self.jobs = jobs
        self.queue_limit = queue_limit
        self.retry_after = retry_after
        # results database: answers submits whose key has a row, and
        # every job a worker completes lands as a provenance-stamped
        # row (a path opens a ResultsDB here)
        if isinstance(db, str):
            from repro.db.store import ResultsDB
            db = ResultsDB(db)
        self.db = db
        self.execute = execute
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.lease_duration = lease_duration
        self.quarantine_ttl = quarantine_ttl
        self.poll_interval = poll_interval
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        self._wake = threading.Event()
        self._workers: List[FleetWorker] = []
        self._threads: List[threading.Thread] = []
        self.shards = shards
        self._shard_locks = [threading.Lock() for _ in range(shards)]
        self._futures: List[Dict[str, "Future[RunStats]"]] = \
            [{} for _ in range(shards)]
        self._lock = threading.Lock()
        #: key -> (expires_at, error) of terminally failed points
        self._quarantine: Dict[str, Tuple[float, str]] = {}
        #: per-job latency distributions (milliseconds): how long a
        #: job waited in the queue (``job_queue_wait_ms``) and how
        #: long its simulation ran (``job_simulate_ms``)
        self.latency = HistogramSet()
        self.submits = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.rejected = 0
        self.leases = 0
        self.executed = 0
        self.retried = 0
        self.failed = 0
        self.timeouts = 0
        self.deduped_results = 0

    def _shard_of(self, key: str) -> int:
        # keys are hex sha256 digests; the leading 32 bits are as
        # uniform as any slice and cheap to parse
        return int(key[:8], 16) % self.shards

    def _count(self, name: str) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the in-process workers (pending journal entries
        resume here)."""
        if self._workers:
            raise RuntimeError("workers already started")
        for index in range(self.jobs):
            # no idle sleep of its own: LocalLink.lease already waits
            # on the wake event, which a submit sets
            worker = FleetWorker(
                LocalLink(self), name=f"local-{index}",
                execute=self.execute, timeout=self.timeout,
                lease_duration=self.lease_duration,
                poll_interval=0.0, quiet=True)
            thread = threading.Thread(
                target=worker.run, name=f"repro-serve-{index}",
                daemon=True)
            thread.start()
            self._workers.append(worker)
            self._threads.append(thread)

    def stop(self, wait: bool = True) -> None:
        """Stop leasing new jobs; optionally join the workers.

        In-flight executions finish their current job first (that is
        the graceful-drain half of SIGTERM handling); jobs still
        PENDING stay journalled for the next process.
        """
        for worker in self._workers:
            worker.stop()
        self._wake.set()
        if wait:
            for thread in self._threads:
                thread.join()
        self._workers, self._threads = [], []

    # ------------------------------------------------------------------
    def submit(self, spec: Dict) -> Submission:
        """Route one validated spec; see the module docstring order."""
        key = schema.spec_key(spec)
        index = self._shard_of(key)
        self._count("submits")
        with self._shard_locks[index]:
            stats = self.db.lookup(key) if self.db is not None else None
            if stats is not None:
                self._count("cache_hits")
                future: "Future[RunStats]" = Future()
                future.set_result(stats)
                return Submission(key=key, job_id=None,
                                  cached=True, coalesced=False,
                                  future=future)
            error = self.quarantined(key)
            if error is not None:
                raise Quarantined(error)
            pending = self._futures[index].get(key)
            if pending is not None:
                # the job may have just been stored and journalled
                # DONE while its waiters are still being answered;
                # the live future bridges that window
                self._count("coalesced")
                active = self.store.active_for(key)
                return Submission(key=key,
                                  job_id=active.id if active else None,
                                  cached=False, coalesced=True,
                                  future=pending)
            existing = self.store.active_for(key)
            if existing is not None:
                self._count("coalesced")
                return Submission(key=key, job_id=existing.id,
                                  cached=False, coalesced=True,
                                  future=self._future_for(index, key))
            job = self.store.submit(spec, key,
                                    limit=self.queue_limit)
            if job is None:
                self._count("rejected")
                raise Busy(self.retry_after)
            submission = Submission(key=key, job_id=job.id,
                                    cached=False, coalesced=False,
                                    future=self._future_for(index, key))
        self._wake.set()
        return submission

    def _future_for(self, index: int,
                    key: str) -> "Future[RunStats]":
        future = self._futures[index].get(key)
        if future is None:
            future = Future()
            self._futures[index][key] = future
        return future

    def quarantined(self, key: str) -> Optional[str]:
        """The recorded error if ``key`` is quarantined, else None."""
        with self._lock:
            entry = self._quarantine.get(key)
            if entry is None:
                return None
            expires, error = entry
            if expires <= self._clock():
                del self._quarantine[key]
                return None
            return error

    # ------------------------------------------------------------------
    # the fleet ops (LocalLink calls, or server ops over the wire)
    # ------------------------------------------------------------------
    def lease(self, worker: str, duration: float) -> Optional[Job]:
        """Grant the next runnable job to ``worker``.

        Jobs whose key already has a row in the results database are
        completed here instead of handed out — the fleet-wide dedup
        that makes an expired-then-finished-elsewhere job free, lets a
        database warmed by batch runs drain a queue without burning a
        single worker-second, and finishes a job whose result was
        stored just before a crash kept it from being journalled DONE.
        """
        while True:
            job = self.store.lease(worker, duration)
            if job is None:
                return None
            stats = (self.db.lookup(job.key) if self.db is not None
                     else None)
            if stats is not None:
                self.store.complete(job.id)
                self._count("deduped_results")
                self._resolve(job.key, stats)
                continue
            self._count("leases")
            return job

    def complete(self, job_id: str, worker: str, stats: RunStats,
                 wall_time_s: Optional[float] = None) -> bool:
        """Store a worker's finished result and publish it.

        The row is written before the job is journalled DONE, so a
        DONE job always has its result stored; a crash between the two
        leaves a stored row that lease-time dedup completes after the
        restart.  Returns ``True`` when this was the completion of
        record (the worker still held the lease).  A late result — the
        lease expired, the job was requeued, possibly re-leased or
        already finished by someone else — is **not** an error:
        determinism makes it byte-equal to the winning result, so it
        is stored (the last write wins) and any waiters are answered,
        and ``False`` reports that it was redundant.  Raises
        :class:`KeyError` for a job id the journal has never seen.
        """
        job = self.store.get(job_id)
        if job is None:
            raise KeyError(f"no job {job_id!r}")
        # updated_at currently stamps the lease grant; complete() will
        # overwrite it, so measure the queue wait first
        queue_wait = max(
            0.0, (job.updated_at or job.submitted_at)
            - job.submitted_at)
        if self.db is not None:
            try:
                self.db.record(
                    job.key, stats, spec=job.spec, source="serve",
                    wall_time_s=wall_time_s,
                    config=schema.spec_config(job.spec))
            except Exception as error:
                warnings.warn(
                    f"results-db record failed for {job.key[:12]}…: "
                    f"{type(error).__name__}: {error}",
                    RuntimeWarning, stacklevel=2)
        fresh = job.state == LEASED and job.worker == worker
        if fresh:
            try:
                self.store.complete(job_id)
            except ValueError:
                # lost a photo-finish with lease expiry; fall through
                # to the dedup path
                fresh = False
        if not fresh:
            self._count("deduped_results")
            self._resolve(job.key, stats)
            return False
        with self._lock:
            self.executed += 1
            self.latency.add("job_queue_wait_ms",
                             int(round(queue_wait * 1000)))
            self.latency.add("job_simulate_ms",
                             int(round((wall_time_s or 0.0) * 1000)))
        self._resolve(job.key, stats)
        return True

    def fail(self, job_id: str, worker: str, message: str) -> bool:
        """Apply the retry policy to a worker's failure report.

        Returns ``False`` (and changes nothing) when the reporting
        worker no longer holds the lease — its failure is stale news
        about a job someone else now owns.  Raises :class:`KeyError`
        for an unknown job id.
        """
        job = self.store.get(job_id)
        if job is None:
            raise KeyError(f"no job {job_id!r}")
        if job.state != LEASED or job.worker != worker:
            return False
        retry = job.attempts < self.max_attempts
        try:
            if retry:
                self.store.requeue(job.id,
                                   not_before=self._clock() +
                                   self._backoff(job.attempts))
            else:
                self.store.fail(job.id, message)
        except ValueError:
            return False           # the lease expired under the report
        if message.startswith(f"{JobTimeout.__name__}:"):
            self._count("timeouts")
        if retry:
            self._count("retried")
            self._wake.set()
            return True
        self._count("failed")
        with self._lock:
            self._quarantine[job.key] = (
                self._clock() + self.quarantine_ttl, message)
        index = self._shard_of(job.key)
        with self._shard_locks[index]:
            future = self._futures[index].pop(job.key, None)
        if future is not None:
            future.set_exception(Quarantined(message))
        return True

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with full jitter in [0.5x, 1.0x]."""
        base = min(self.backoff_cap,
                   self.backoff_base * (2 ** (attempt - 1)))
        return base * (0.5 + self._rng.random() / 2)

    def heartbeat(self, job_id: str, worker: str,
                  duration: float) -> Job:
        """Extend a worker's lease (see JobStore.heartbeat)."""
        return self.store.heartbeat(job_id, worker, duration)

    def _resolve(self, key: str, stats: RunStats) -> None:
        """Answer any waiters for ``key``."""
        index = self._shard_of(key)
        with self._shard_locks[index]:
            future = self._futures[index].pop(key, None)
        if future is not None:
            future.set_result(stats)

    # ------------------------------------------------------------------
    def inflight(self) -> int:
        """Keys with unresolved waiters (a drain gauge)."""
        total = 0
        for index in range(self.shards):
            with self._shard_locks[index]:
                total += len(self._futures[index])
        return total

    def latency_summary(self) -> Dict:
        """Count/mean/p50/p95/p99/max (ms) per latency histogram."""
        out: Dict[str, Dict] = {}
        with self._lock:
            for name in self.latency.names():
                histogram = self.latency.get(name)
                out[name] = {
                    "count": histogram.count,
                    "sum_ms": histogram.total,
                    "mean_ms": round(histogram.mean, 3),
                    "p50_ms": histogram.percentile(0.50),
                    "p95_ms": histogram.percentile(0.95),
                    "p99_ms": histogram.percentile(0.99),
                    "max_ms": histogram.max_value,
                }
        return out

    def snapshot(self) -> Dict:
        """One flat dict of everything the metrics endpoint exports."""
        counts = self.store.counts()
        out = {
            "submits": self.submits,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "leases": self.leases,
            "executed": self.executed,
            "retried": self.retried,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "deduped_results": self.deduped_results,
        }
        for state, value in counts.items():
            out[f"jobs_{state}"] = value
        return out
