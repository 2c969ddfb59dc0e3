"""Single-flight scheduling: N identical submissions, one simulation.

Simulations are pure functions of their spec (that is what makes the
run cache sound), so the scheduler treats the
:func:`~repro.serve.schema.spec_key` digest as the unit of work and
enforces one invariant: **at any moment, at most one execution per
key exists anywhere in the fleet**.  A submission resolves through
the first of:

1. **store** — the key is already in the shared
   :class:`~repro.serve.results.ResultStore` (from a previous service
   run, another fleet member, *or* any CLI/harness run that shared
   the directory): the result is returned immediately, no job;
2. **quarantine** — the key recently failed terminally: the recorded
   error is raised immediately instead of re-burning workers;
3. **coalesce** — a job for the key is already queued or running: the
   caller is attached to the existing job's future;
4. **enqueue** — a new job is journalled and the pool is woken; this
   is the only path that can be refused for backpressure
   (:class:`Busy`), because attaching a waiter or reading the store
   costs nothing.

Dedup state is **sharded by key**: the waiter-future map is split
over ``shards`` independent locks (a key's shard is a prefix of its
hex digest), so thousands of concurrent submissions of *distinct*
points do not serialize on one lock — only identical points contend,
and those are exactly the ones that must.  The queue-occupancy limit
moved into :meth:`JobStore.submit` so backpressure stays exact
without a global lock around the check-then-enqueue.

The execution side is symmetric about where workers live:

* **local** — the in-process :class:`WorkerPool` threads lease
  directly from the store (``jobs >= 1``);
* **remote** — ``serve worker --connect`` processes lease **over the
  wire** through :meth:`lease` / :meth:`complete` / :meth:`fail` /
  :meth:`heartbeat`, which the server exposes as protocol ops.  A
  remote lease first consults the result store, so a job whose key
  was finished elsewhere (late result after an expired lease, a
  batch run that shared the directory) is completed on the spot
  instead of re-simulated; a ``complete`` whose lease has moved on
  is deduplicated by run key rather than rejected — its result is
  published and its waiters answered, it just isn't the completion
  of record.

Waiters hold :class:`concurrent.futures.Future` objects resolved from
worker threads (or the server's executor for remote completions); the
asyncio server awaits them via ``asyncio.wrap_future`` without
blocking the event loop.
"""

from __future__ import annotations

import threading
import warnings
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.harness.cache import RunCache
from repro.serve import schema
from repro.serve.jobs import Job, JobStore, LEASED
from repro.serve.workers import WorkerPool
from repro.stats.collector import RunStats


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
    job_id: Optional[str]        # None when served straight from cache
    cached: bool
    coalesced: bool
    future: "Future[RunStats]"


class Scheduler:
    """Owns the store, the result cache, and the worker pool."""

    def __init__(self, store: JobStore,
                 cache: Optional[RunCache] = None,
                 jobs: int = 1, queue_limit: int = 64,
                 retry_after: float = 1.0,
                 cache_max_bytes: Optional[int] = None,
                 db=None, db_flush_interval: Optional[float] = None,
                 shards: int = 16, **pool_options) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.store = store
        self.cache = cache
        self.queue_limit = queue_limit
        self.retry_after = retry_after
        self.cache_max_bytes = cache_max_bytes
        # results database: every job a worker completes lands as a
        # provenance-stamped row (a path opens a ResultsDB here)
        if isinstance(db, str):
            from repro.db.store import ResultsDB
            db = ResultsDB(db, flush_interval=db_flush_interval)
        self.db = db
        self.pool = WorkerPool(store, jobs=jobs,
                               on_result=self._on_result,
                               on_failure=self._on_failure,
                               **pool_options)
        self.shards = shards
        self._shard_locks = [threading.Lock() for _ in range(shards)]
        self._futures: List[Dict[str, "Future[RunStats]"]] = \
            [{} for _ in range(shards)]
        self._counter_lock = threading.Lock()
        self.submits = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.rejected = 0
        self.remote_leases = 0
        self.remote_results = 0
        self.deduped_results = 0

    def _shard_of(self, key: str) -> int:
        # keys are hex sha256 digests; the leading 32 bits are as
        # uniform as any slice and cheap to parse
        return int(key[:8], 16) % self.shards

    def _count(self, name: str) -> None:
        with self._counter_lock:
            setattr(self, name, getattr(self, name) + 1)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the workers (pending journal entries resume here)."""
        self.pool.start()

    def stop(self, wait: bool = True) -> None:
        self.pool.stop(wait=wait)
        if self.db is not None:
            try:
                self.db.flush()
            except Exception as error:     # pragma: no cover
                warnings.warn(f"results-db flush failed: "
                              f"{type(error).__name__}: {error}",
                              RuntimeWarning, stacklevel=2)

    # ------------------------------------------------------------------
    def submit(self, spec: Dict) -> Submission:
        """Route one validated spec; see the module docstring order."""
        key = schema.spec_key(spec)
        index = self._shard_of(key)
        self._count("submits")
        with self._shard_locks[index]:
            if self.cache is not None:
                stats = self.cache.get(key)
                if stats is not None:
                    self._count("cache_hits")
                    future: "Future[RunStats]" = Future()
                    future.set_result(stats)
                    return Submission(key=key, job_id=None,
                                      cached=True, coalesced=False,
                                      future=future)
            error = self.pool.quarantined(key)
            if error is not None:
                raise Quarantined(error)
            pending = self._futures[index].get(key)
            if pending is not None:
                # the job may have just left the queue (DONE) while
                # its result is still being published to the cache;
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
        self.pool.notify()
        return submission

    def _future_for(self, index: int,
                    key: str) -> "Future[RunStats]":
        future = self._futures[index].get(key)
        if future is None:
            future = Future()
            self._futures[index][key] = future
        return future

    # ------------------------------------------------------------------
    # the remote fleet (server ops lease/complete/fail/heartbeat)
    # ------------------------------------------------------------------
    def lease(self, worker: str, duration: float) -> Optional[Job]:
        """Grant the next runnable job to a remote worker.

        Jobs whose key already has a result in the shared store are
        completed here instead of handed out — the fleet-wide dedup
        that makes an expired-then-finished-elsewhere job free, and
        lets a warm batch cache drain a queue without burning a
        single worker-second.
        """
        while True:
            job = self.store.lease(worker, duration)
            if job is None:
                return None
            if self.cache is not None and self.cache.contains(job.key):
                stats = self.cache.get(job.key)
                if stats is not None:
                    self.store.complete(job.id)
                    self._count("deduped_results")
                    self._resolve(job.key, stats)
                    continue
            self._count("remote_leases")
            return job

    def complete(self, job_id: str, worker: str, stats: RunStats,
                 wall_time_s: Optional[float] = None) -> bool:
        """Record a remote worker's finished result.

        Returns ``True`` when this was the completion of record (the
        worker still held the lease).  A late result — the lease
        expired, the job was requeued, possibly re-leased or already
        finished by someone else — is **not** an error: determinism
        makes it byte-equal to the winning result, so it is published
        to the store and any waiters are answered, and ``False``
        reports that it was redundant.  Raises :class:`KeyError` for
        a job id the journal has never seen.
        """
        job = self.store.get(job_id)
        if job is None:
            raise KeyError(f"no job {job_id!r}")
        # updated_at currently stamps the lease grant; complete() will
        # overwrite it, so measure the queue wait first
        queue_wait = max(
            0.0, (job.updated_at or job.submitted_at)
            - job.submitted_at)
        fresh = False
        if job.state == LEASED and job.worker == worker:
            try:
                self.store.complete(job_id)
                fresh = True
            except ValueError:
                # lost a photo-finish with lease expiry; fall through
                # to the dedup path
                fresh = False
        if fresh:
            self._count("remote_results")
            self.pool.note_executed(
                queue_wait, wall_time_s if wall_time_s else 0.0)
            job.wall_time_s = wall_time_s
            self._on_result(job, stats)
            return True
        self._count("deduped_results")
        if self.cache is not None:
            self.cache.put_if_absent(job.key, stats)
        self._resolve(job.key, stats)
        return False

    def fail(self, job_id: str, worker: str, message: str) -> bool:
        """Apply the retry policy to a remote worker's failure report.

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
        self.pool.record_failure(job, message)
        return True

    def heartbeat(self, job_id: str, worker: str,
                  duration: float) -> Job:
        """Extend a remote worker's lease (see JobStore.heartbeat)."""
        return self.store.heartbeat(job_id, worker, duration)

    def _resolve(self, key: str, stats: RunStats) -> None:
        """Answer any waiters for ``key`` outside the job lifecycle."""
        index = self._shard_of(key)
        with self._shard_locks[index]:
            future = self._futures[index].pop(key, None)
        if future is not None:
            future.set_result(stats)

    # ------------------------------------------------------------------
    # worker-thread callbacks
    # ------------------------------------------------------------------
    def _on_result(self, job, stats: RunStats) -> None:
        if self.cache is not None:
            self.cache.put(job.key, stats)
            if self.cache_max_bytes is not None:
                self.cache.prune(self.cache_max_bytes)
        if self.db is not None:
            try:
                self.db.record(
                    job.key, stats, spec=job.spec, source="serve",
                    wall_time_s=getattr(job, "wall_time_s", None),
                    config=schema.spec_config(job.spec))
            except Exception as error:
                warnings.warn(
                    f"results-db record failed for {job.key[:12]}…: "
                    f"{type(error).__name__}: {error}",
                    RuntimeWarning, stacklevel=2)
        self._resolve(job.key, stats)

    def _on_failure(self, job, message: str) -> None:
        index = self._shard_of(job.key)
        with self._shard_locks[index]:
            future = self._futures[index].pop(job.key, None)
        if future is not None:
            future.set_exception(Quarantined(message))

    # ------------------------------------------------------------------
    def inflight(self) -> int:
        """Keys with unresolved waiters (a drain gauge)."""
        total = 0
        for index in range(self.shards):
            with self._shard_locks[index]:
                total += len(self._futures[index])
        return total

    def snapshot(self) -> Dict:
        """One flat dict of everything the metrics endpoint exports."""
        counts = self.store.counts()
        out = {
            "submits": self.submits,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "executed": self.pool.executed,
            "retried": self.pool.retried,
            "failed": self.pool.failed,
            "timeouts": self.pool.timeouts,
            "remote_leases": self.remote_leases,
            "remote_results": self.remote_results,
            "deduped_results": self.deduped_results,
        }
        for state, value in counts.items():
            out[f"jobs_{state}"] = value
        if self.cache is not None:
            for name, value in self.cache.stats().items():
                out[f"cache_{name}"] = value
        return out
