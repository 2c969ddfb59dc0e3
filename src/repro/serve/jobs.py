"""Durable on-disk job queue: a JSONL journal of state transitions.

The store is the service's crash-safety boundary.  Every mutation —
submit, lease, done, failed, requeue — is appended to a journal file
*before* the in-memory state changes, so a process killed at any
instant loses at most the transition it was writing (a torn trailing
line, which replay tolerates and discards).  Reopening the journal
replays it into the identical queue: jobs that were PENDING are still
pending, jobs that were LEASED by a worker that no longer exists are
requeued, finished jobs stay finished.  Nothing is lost and nothing
runs twice *as a queue entry* (the results database makes
re-execution of a completed key free anyway).

State machine::

    PENDING --lease--> LEASED --done----> DONE
       ^                  |  `--failed--> FAILED
       |                  |
       `----requeue-------'   (lease expiry, worker crash, retry)

Leases carry a wall-clock deadline: a worker that stops heartbeating
(crashed, wedged, OOM-killed) simply lets its deadline pass, after
which :meth:`JobStore.lease` hands the job to the next worker.
Live workers extend their deadline with :meth:`JobStore.heartbeat`;
heartbeats are *not* journalled, because a lease never survives a
dispatcher restart anyway (reopen requeues every LEASED job).  The
``not_before`` field delays retries (jittered backoff is computed by
the scheduler's retry policy; the store only enforces the resulting
earliest start time).

Long-lived dispatchers accumulate an unbounded transition history;
besides the explicit :meth:`JobStore.compact`, the store compacts
itself at startup when the replayed journal carries more than
``compact_threshold`` stale records (transitions of already-finished
jobs), logging the reclaimed count to stderr.

The store is synchronous and thread-safe; the asyncio server talks to
it through the scheduler, never directly from the event loop.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import threading
import time
import warnings
from typing import Callable, Dict, List, Optional

PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

STATES = (PENDING, LEASED, DONE, FAILED)

#: states in which a job still occupies the queue
ACTIVE = (PENDING, LEASED)

JOURNAL_VERSION = 1


@dataclasses.dataclass
class Job:
    """One queued simulation request and its lifecycle bookkeeping."""

    id: str
    key: str                     # run_key digest — the dedup identity
    spec: Dict                   # validated request spec (schema.py)
    state: str = PENDING
    attempts: int = 0            # lease grants so far
    not_before: float = 0.0      # earliest next lease (retry backoff)
    deadline: float = 0.0        # current lease expiry (LEASED only)
    worker: str = ""             # current/last lease holder
    error: str = ""              # failure message (FAILED only)
    submitted_at: float = 0.0
    updated_at: float = 0.0

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "Job":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})


class JobStore:
    """Append-only journal + in-memory index of every job.

    ``clock`` is injectable so tests can drive lease expiry without
    sleeping; it must return seconds as a float (wall clock by
    default — deadlines have to survive process restarts).
    """

    def __init__(self, path: str,
                 clock: Callable[[], float] = time.time,
                 fsync: bool = False,
                 compact_threshold: Optional[int] = 1000) -> None:
        self.path = path
        self._clock = clock
        self._fsync = fsync
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}   # key -> active job id
        self._seq = 0
        self.replayed_records = 0
        self._replay()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")
        stale = self.replayed_records - len(self._jobs)
        if compact_threshold is not None and stale >= compact_threshold:
            self.compact()
            print(f"[jobs] compacted {self.path} at startup: "
                  f"reclaimed {stale} stale record(s), "
                  f"{len(self._jobs)} job(s) kept",
                  file=sys.stderr, flush=True)
        self._recover_leases()

    # ------------------------------------------------------------------
    # journal mechanics
    # ------------------------------------------------------------------
    def _replay(self) -> None:
        """Rebuild the queue from the journal (missing file = empty)."""
        try:
            handle = open(self.path, encoding="utf-8")
        except OSError:
            return
        with handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    self._apply(record)
                    self.replayed_records += 1
                except (ValueError, KeyError, TypeError) as error:
                    # a torn trailing line is the expected crash
                    # artifact; anything else is still safer to skip
                    # than to guess at
                    warnings.warn(
                        f"job journal {self.path}:{lineno}: skipping "
                        f"unreadable record ({type(error).__name__}: "
                        f"{error})", RuntimeWarning, stacklevel=2)

    def _apply(self, record: Dict) -> None:
        """Apply one journal record to the in-memory index."""
        op = record["op"]
        if op == "submit":
            job = Job.from_dict(record["job"])
            self._jobs[job.id] = job
            if job.state in ACTIVE:
                self._by_key[job.key] = job.id
            self._seq = max(self._seq, int(job.id[1:]))
            return
        job = self._jobs[record["id"]]
        now = record.get("ts", job.updated_at)
        if op == "lease":
            job.state = LEASED
            job.worker = record["worker"]
            job.deadline = record["deadline"]
            job.attempts = record["attempts"]
        elif op == "requeue":
            job.state = PENDING
            job.worker = ""
            job.deadline = 0.0
            job.not_before = record.get("not_before", 0.0)
        elif op == "done":
            job.state = DONE
            job.error = ""
            self._by_key.pop(job.key, None)
        elif op == "failed":
            job.state = FAILED
            job.error = record.get("error", "")
            self._by_key.pop(job.key, None)
        else:
            raise KeyError(f"unknown journal op {op!r}")
        job.updated_at = now

    def _append(self, record: Dict) -> None:
        """Journal one transition (called with the lock held)."""
        record["v"] = JOURNAL_VERSION
        self._handle.write(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def _recover_leases(self) -> None:
        """Requeue jobs leased by workers of a previous process.

        Runs once at open: whatever held a lease before this process
        started cannot still be running inside it, so waiting out the
        deadline would only delay the inevitable requeue.
        """
        for job in self._jobs.values():
            if job.state == LEASED:
                self._append({"op": "requeue", "id": job.id,
                              "not_before": 0.0, "ts": self._clock()})
                self._apply({"op": "requeue", "id": job.id,
                             "not_before": 0.0, "ts": self._clock()})

    def close(self) -> None:
        with self._lock:
            self._handle.close()

    def compact(self) -> None:
        """Rewrite the journal as one submit record per live job.

        Long-lived servers accumulate an unbounded transition history;
        compaction snapshots the current state atomically (temp file +
        rename) and reopens the journal on it.
        """
        with self._lock:
            tmp = self.path + ".compact"
            with open(tmp, "w", encoding="utf-8") as handle:
                for job in sorted(self._jobs.values(),
                                  key=lambda j: j.id):
                    handle.write(json.dumps(
                        {"v": JOURNAL_VERSION, "op": "submit",
                         "job": job.to_dict()},
                        sort_keys=True, separators=(",", ":")) + "\n")
            self._handle.close()
            os.replace(tmp, self.path)
            self._handle = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def submit(self, spec: Dict, key: str,
               limit: Optional[int] = None) -> Optional[Job]:
        """Queue a job for ``key``, deduplicating against active ones.

        At most one PENDING/LEASED job exists per key: a second submit
        of an identical point returns the already-queued job, which is
        what lets N concurrent identical requests ride one simulation.

        ``limit`` bounds queue occupancy *atomically*: when admitting
        this job would push the active count past it, nothing is
        journalled and ``None`` is returned (the scheduler turns that
        into a ``Busy`` refusal).  Dedup wins over the limit — an
        identical active submission coalesces even through a full
        queue, because attaching costs no capacity.
        """
        with self._lock:
            existing = self._by_key.get(key)
            if existing is not None:
                return self._jobs[existing]
            if limit is not None and len(self._by_key) >= limit:
                return None
            now = self._clock()
            self._seq += 1
            job = Job(id=f"j{self._seq:06d}", key=key, spec=dict(spec),
                      submitted_at=now, updated_at=now)
            self._append({"op": "submit", "job": job.to_dict()})
            self._jobs[job.id] = job
            self._by_key[key] = job.id
            return job

    def lease(self, worker: str, duration: float) -> Optional[Job]:
        """Grant the oldest eligible PENDING job to ``worker``.

        Expired leases are reclaimed first, so a job whose holder
        crashed mid-run is immediately up for grabs again.  Returns
        ``None`` when nothing is ready (the worker then waits).
        """
        with self._lock:
            now = self._clock()
            self._expire(now)
            candidates = [job for job in self._jobs.values()
                          if job.state == PENDING
                          and job.not_before <= now]
            if not candidates:
                return None
            job = min(candidates, key=lambda j: j.id)
            record = {"op": "lease", "id": job.id, "worker": worker,
                      "deadline": now + duration,
                      "attempts": job.attempts + 1, "ts": now}
            self._append(record)
            self._apply(record)
            return job

    def _expire(self, now: float) -> None:
        """Requeue LEASED jobs whose deadline has passed."""
        for job in self._jobs.values():
            if job.state == LEASED and job.deadline <= now:
                record = {"op": "requeue", "id": job.id,
                          "not_before": 0.0, "ts": now}
                self._append(record)
                self._apply(record)

    def expire_leases(self) -> None:
        """Public hook: reclaim expired leases right now."""
        with self._lock:
            self._expire(self._clock())

    def heartbeat(self, job_id: str, worker: str,
                  duration: float) -> Job:
        """Extend ``worker``'s lease on a job by ``duration`` seconds.

        Raises :class:`KeyError` for an unknown job and
        :class:`ValueError` when the job is not currently leased by
        ``worker`` — the signal a slow worker gets that its lease
        expired and the job moved on (its eventual result is then
        deduplicated by run key instead of completing the job).

        Deliberately not journalled: a dispatcher restart requeues
        every lease regardless (see :meth:`_recover_leases`), so a
        deadline extension has nothing to survive into.
        """
        with self._lock:
            job = self._jobs[job_id]
            if job.state != LEASED or job.worker != worker:
                raise ValueError(
                    f"job {job_id} is not leased by {worker!r} "
                    f"(state {job.state}, holder {job.worker!r})")
            job.deadline = self._clock() + duration
            return job

    def complete(self, job_id: str) -> Job:
        """LEASED -> DONE (the result itself lives in the results DB)."""
        return self._finish({"op": "done", "id": job_id})

    def fail(self, job_id: str, error: str) -> Job:
        """LEASED -> FAILED, terminally (retries are requeues)."""
        return self._finish({"op": "failed", "id": job_id,
                             "error": error})

    def requeue(self, job_id: str, not_before: float = 0.0) -> Job:
        """LEASED -> PENDING for a retry, not leasable before
        ``not_before`` (the scheduler passes its backoff here)."""
        with self._lock:
            job = self._jobs[job_id]
            if job.state != LEASED:
                raise ValueError(f"cannot requeue job {job_id} in "
                                 f"state {job.state}")
            record = {"op": "requeue", "id": job_id,
                      "not_before": not_before, "ts": self._clock()}
            self._append(record)
            self._apply(record)
            return job

    def _finish(self, record: Dict) -> Job:
        with self._lock:
            job = self._jobs[record["id"]]
            if job.state != LEASED:
                raise ValueError(f"cannot finish job {record['id']} "
                                 f"in state {job.state}")
            record["ts"] = self._clock()
            self._append(record)
            self._apply(record)
            return job

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def active_for(self, key: str) -> Optional[Job]:
        """The PENDING/LEASED job for ``key``, if one is queued."""
        with self._lock:
            job_id = self._by_key.get(key)
            return self._jobs[job_id] if job_id else None

    def jobs(self) -> List[Job]:
        """All jobs, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.id)

    def counts(self) -> Dict[str, int]:
        """``{state: count}`` over every state (zeroes included)."""
        with self._lock:
            out = {state: 0 for state in STATES}
            for job in self._jobs.values():
                out[job.state] += 1
            return out

    def active_count(self) -> int:
        """Queue occupancy — what backpressure is measured against."""
        with self._lock:
            return len(self._by_key)
