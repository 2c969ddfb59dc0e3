"""The durable job queue: the ``jobs`` table of the results database.

Each job is one row beside the ``runs`` rows its result will land in
(:class:`~repro.db.store.ResultsDB`).  Every transition — submit,
lease, heartbeat, requeue, done, failed — is one transaction on the
database's connection, so a process killed at any instant leaves
either the whole transition or none of it, and the scheduler commits
a job's result rows and its DONE together.  Opening the store requeues
every LEASED job: whatever held a lease before this process started
cannot still be running inside it.  A partial unique index makes the
database itself refuse a second active job for one key.

State machine::

    PENDING --lease--> LEASED --done----> DONE
       ^                  |  `--failed--> FAILED
       |                  |
       `----requeue-------'   (lease expiry, worker crash, retry)

Leases carry a wall-clock deadline: a worker that stops heartbeating
(crashed, wedged, OOM-killed) simply lets its deadline pass, after
which :meth:`JobStore.lease` hands the job to the next worker.  Live
workers extend their deadline with :meth:`JobStore.heartbeat`.  The
transitions that end a lease name its holder and change nothing when
that worker no longer holds it.  The ``not_before`` field delays
retries (jittered backoff is computed by the scheduler's retry policy;
the store only enforces the resulting earliest start time).

One dispatcher per database: the queue's reopen requeues every lease,
so a second store opened on a live dispatcher's file would take its
running jobs away from it.

The store is synchronous and thread-safe (the database's lock); the
asyncio server talks to it through the scheduler, never directly from
the event loop.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Callable, Dict, List, Optional

from repro.db.store import ResultsDB

PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

STATES = (PENDING, LEASED, DONE, FAILED)


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


_COLUMNS = ("seq, key, spec, state, attempts, not_before, deadline, "
            "worker, error, submitted_at, updated_at")
_SELECT = f"SELECT {_COLUMNS} FROM jobs"
#: the states in which a job still occupies the queue
_ACTIVE = "(state = 'pending' OR state = 'leased')"
#: back to PENDING, free to lease from ``not_before`` on
_REQUEUE = ("state = 'pending', worker = '', deadline = 0.0, "
            "not_before = ?")


def _job(row) -> Job:
    seq, key, spec, *rest = row
    return Job(f"j{seq:06d}", key, json.loads(spec), *rest)


def _seq(job_id: str) -> int:
    """The row of a ``j000001`` id; 0, which no row has, for any other
    string."""
    try:
        seq = int(job_id[1:])
    except ValueError:
        return 0
    return seq if job_id == f"j{seq:06d}" else 0


class JobStore:
    """The job queue of one :class:`ResultsDB`.

    ``clock`` is injectable so tests can drive lease expiry without
    sleeping; it must return seconds as a float (wall clock by
    default — deadlines are stored with the jobs).
    """

    def __init__(self, db: ResultsDB,
                 clock: Callable[[], float] = time.time) -> None:
        self.db = db
        self._clock = clock
        with db.transaction() as conn:
            conn.execute(f"UPDATE jobs SET {_REQUEUE}, updated_at = ? "
                         "WHERE state = 'leased'", (0.0, clock()))

    def close(self) -> None:
        self.db.close()

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
        written and ``None`` is returned (the scheduler turns that
        into a ``Busy`` refusal).  Dedup wins over the limit — an
        identical active submission coalesces even through a full
        queue, because attaching costs no capacity.
        """
        with self.db.transaction() as conn:
            row = conn.execute(f"{_SELECT} WHERE key = ? AND {_ACTIVE}",
                               (key,)).fetchone()
            if row is not None:
                return _job(row)
            if limit is not None and conn.execute(
                    f"SELECT COUNT(*) FROM jobs WHERE {_ACTIVE}"
            ).fetchone()[0] >= limit:
                return None
            now = self._clock()
            seq = conn.execute(
                "INSERT INTO jobs (key, spec, submitted_at, updated_at)"
                " VALUES (?, ?, ?, ?)",
                (key, json.dumps(spec, sort_keys=True), now, now)
            ).lastrowid
        return Job(id=f"j{seq:06d}", key=key, spec=dict(spec),
                   submitted_at=now, updated_at=now)

    def lease(self, worker: str, duration: float) -> Optional[Job]:
        """Grant the oldest eligible PENDING job to ``worker``.

        Expired leases are reclaimed first, so a job whose holder
        crashed mid-run is immediately up for grabs again.  Returns
        ``None`` when nothing is ready (the worker then waits).
        """
        with self.db.transaction() as conn:
            now = self._clock()
            conn.execute(f"UPDATE jobs SET {_REQUEUE}, updated_at = ? "
                         "WHERE state = 'leased' AND deadline <= ?",
                         (0.0, now, now))
            row = conn.execute(
                "UPDATE jobs SET state = 'leased', worker = ?, "
                "deadline = ?, attempts = attempts + 1, updated_at = ? "
                # the queue index holds the waiting jobs together, in
                # seq order, while the table's oldest rows are
                # finished jobs
                "WHERE seq = (SELECT seq FROM jobs "
                "INDEXED BY idx_jobs_queue "
                "WHERE state = 'pending' AND not_before <= ? "
                f"ORDER BY seq LIMIT 1) RETURNING {_COLUMNS}",
                (worker, now + duration, now, now)).fetchone()
        return _job(row) if row is not None else None

    def heartbeat(self, job_id: str, worker: str,
                  duration: float) -> Job:
        """Extend ``worker``'s lease on a job by ``duration`` seconds.

        Raises :class:`KeyError` for an unknown job and
        :class:`ValueError` when the job is not currently leased by
        ``worker`` — the signal a slow worker gets that its lease
        expired and the job moved on (its eventual result is then
        deduplicated by run key instead of completing the job).
        """
        with self.db.transaction() as conn:
            row = conn.execute(
                "UPDATE jobs SET deadline = ? WHERE seq = ? AND "
                f"state = 'leased' AND worker = ? RETURNING {_COLUMNS}",
                (self._clock() + duration, _seq(job_id), worker)
            ).fetchone()
        if row is not None:
            return _job(row)
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        raise ValueError(
            f"job {job_id} is not leased by {worker!r} "
            f"(state {job.state}, holder {job.worker!r})")

    def complete(self, job_id: str, worker: str) -> bool:
        """LEASED -> DONE (the result itself lives in ``runs``)."""
        return self._end_lease(job_id, worker, "state = 'done'", ())

    def fail(self, job_id: str, worker: str, error: str) -> bool:
        """LEASED -> FAILED, terminally (retries are requeues)."""
        return self._end_lease(job_id, worker,
                               "state = 'failed', error = ?", (error,))

    def requeue(self, job_id: str, worker: str,
                not_before: float = 0.0) -> bool:
        """LEASED -> PENDING for a retry, not leasable before
        ``not_before`` (the scheduler passes its backoff here)."""
        return self._end_lease(job_id, worker, _REQUEUE, (not_before,))

    def _end_lease(self, job_id: str, worker: str, assignments: str,
                   params: tuple) -> bool:
        """Apply one lease-ending transition if ``worker`` holds the
        job's lease; returns whether it did."""
        with self.db.transaction() as conn:
            return conn.execute(
                f"UPDATE jobs SET {assignments}, updated_at = ? "
                "WHERE seq = ? AND state = 'leased' AND worker = ?",
                (*params, self._clock(), _seq(job_id), worker)
            ).rowcount == 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        rows = self.db.query(f"{_SELECT} WHERE seq = ?", (_seq(job_id),))
        return _job(rows[0]) if rows else None

    def active_for(self, key: str) -> Optional[Job]:
        """The PENDING/LEASED job for ``key``, if one is queued."""
        rows = self.db.query(f"{_SELECT} WHERE key = ? AND {_ACTIVE}",
                             (key,))
        return _job(rows[0]) if rows else None

    def jobs(self) -> List[Job]:
        """All jobs, oldest first."""
        return [_job(row)
                for row in self.db.query(f"{_SELECT} ORDER BY seq")]

    def counts(self) -> Dict[str, int]:
        """``{state: count}`` over every state (zeroes included)."""
        out = {state: 0 for state in STATES}
        out.update(self.db.query(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"))
        return out

    def active_count(self) -> int:
        """Queue occupancy — what backpressure is measured against."""
        return self.db.query(
            f"SELECT COUNT(*) FROM jobs WHERE {_ACTIVE}")[0][0]
