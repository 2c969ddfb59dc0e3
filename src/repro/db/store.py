"""The sqlite-backed experiment results database.

One row per simulation run, keyed by the harness
:func:`~repro.harness.cache.run_key` digest — the same identity the
runner's memo, the serve scheduler's single-flight dedup, and the
result envelope already agree on.  It is the one persistent store of
results: a runner or a serve scheduler that finds a row for a point's
key reads the :class:`RunStats` back instead of simulating it.  Four
tables:

* ``runs`` — one row per run: the validated spec (JSON), the
  workload/protocol/consistency/preset/scale/seed it denormalises,
  provenance (git commit, config hash, host, package version), how
  the run was produced (``source``), its status, and wall time;
* ``stats`` — the flattened :class:`~repro.stats.collector.RunStats`:
  every counter and per-component energy as one ``(kind, name,
  value)`` row, every histogram as its exact bucket payload;
* ``timeseries`` — the cycle-sampled metrics rows a run carries in
  ``RunStats.timeseries`` (PR 2), one row per (sample, column);
* ``jobs`` — the serve job queue (:mod:`repro.serve.jobs`), so a job's
  state and its result live in one file and change in one transaction.

Writes are **idempotent upserts**: recording the same run key twice
replaces the row and its child rows in one transaction, so re-running
a sweep converges instead of duplicating, and concurrent writers
(worker processes, serve workers on other hosts sharing a filesystem)
resolve by last-write-wins.  Every write runs in :meth:`transaction`:
a :meth:`record` on its own is one transaction, durable once the call
returns, and one inside an enclosing :meth:`transaction` commits with
the rest of it.  The database opens in WAL mode with a busy timeout,
which is sqlite's supported concurrent-writer configuration: writers
queue briefly instead of failing.

The round trip is exact: ``db.get_stats(key) ==`` the original
``RunStats`` for any run — counters stay integers (sqlite NUMERIC
affinity preserves them), energies stay float64, histograms restore
their full buckets, and the time-series reassembles sample-by-sample.
That is what lets reports and figure tables be cheap queries rather
than re-simulations.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
import time
import warnings
from typing import Dict, Iterator, List, Optional

import repro
from repro.db import provenance
from repro.stats.collector import RunStats
from repro.stats.histogram import Histogram

#: bump when the table shapes change incompatibly
SCHEMA_VERSION = 2

_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS runs (
    run_key       TEXT PRIMARY KEY,
    workload      TEXT NOT NULL DEFAULT '',
    protocol      TEXT NOT NULL DEFAULT '',
    consistency   TEXT NOT NULL DEFAULT '',
    preset        TEXT NOT NULL DEFAULT '',
    scale         REAL,
    seed          INTEGER,
    spec          TEXT,
    config_desc   TEXT NOT NULL DEFAULT '',
    config_hash   TEXT NOT NULL DEFAULT '',
    git_commit    TEXT NOT NULL DEFAULT '',
    repro_version TEXT NOT NULL DEFAULT '',
    host          TEXT NOT NULL DEFAULT '',
    source        TEXT NOT NULL DEFAULT '',
    status        TEXT NOT NULL DEFAULT 'done',
    wall_time_s   REAL,
    cycles        INTEGER NOT NULL,
    timeseries_meta TEXT NOT NULL DEFAULT '',
    created_at    REAL NOT NULL,
    updated_at    REAL NOT NULL,
    n_gpus        INTEGER NOT NULL DEFAULT 1
)""",
    "CREATE INDEX IF NOT EXISTS idx_runs_point "
    "ON runs(workload, protocol, consistency)",
    "CREATE INDEX IF NOT EXISTS idx_runs_commit ON runs(git_commit)",
    """CREATE TABLE IF NOT EXISTS stats (
    run_key TEXT NOT NULL,
    kind    TEXT NOT NULL,
    name    TEXT NOT NULL,
    value   NUMERIC,
    payload TEXT,
    PRIMARY KEY (run_key, kind, name)
) WITHOUT ROWID""",
    """CREATE TABLE IF NOT EXISTS timeseries (
    run_key TEXT NOT NULL,
    sample  INTEGER NOT NULL,
    cycle   INTEGER NOT NULL,
    name    TEXT NOT NULL,
    value   NUMERIC NOT NULL,
    PRIMARY KEY (run_key, sample, name)
) WITHOUT ROWID""",
    # a job's id is "j" + seq, zero-padded to six digits
    """CREATE TABLE IF NOT EXISTS jobs (
    seq          INTEGER PRIMARY KEY,
    key          TEXT NOT NULL,
    spec         TEXT NOT NULL,
    state        TEXT NOT NULL DEFAULT 'pending',
    attempts     INTEGER NOT NULL DEFAULT 0,
    not_before   REAL NOT NULL DEFAULT 0.0,
    deadline     REAL NOT NULL DEFAULT 0.0,
    worker       TEXT NOT NULL DEFAULT '',
    error        TEXT NOT NULL DEFAULT '',
    submitted_at REAL NOT NULL,
    updated_at   REAL NOT NULL
)""",
    # at most one active job per key; written as an OR so that the
    # queries on one state can scan it instead of the whole table
    "CREATE UNIQUE INDEX IF NOT EXISTS idx_jobs_active ON jobs(key) "
    "WHERE state = 'pending' OR state = 'leased'",
    # what JobStore.lease seeks: the leases alone, to expire them, and
    # the pending jobs in seq order with not_before covered, so no
    # table row is read until one qualifies.  A heartbeat changes no
    # column of it.
    "CREATE INDEX IF NOT EXISTS idx_jobs_queue "
    "ON jobs(state, seq, not_before) "
    "WHERE state = 'pending' OR state = 'leased'",
)

#: columns of the ``runs`` table.  Rows are read by naming them, so a
#: file whose ``n_gpus`` column was added by ALTER TABLE reads the same.
RUN_COLUMNS = (
    "run_key", "workload", "protocol", "consistency", "preset",
    "scale", "seed", "spec", "config_desc", "config_hash",
    "git_commit", "repro_version", "host", "source", "status",
    "wall_time_s", "cycles", "timeseries_meta", "created_at",
    "updated_at", "n_gpus",
)

_SELECT_RUNS = f"SELECT {', '.join(RUN_COLUMNS)} FROM runs"


def _switch_to_wal(conn: sqlite3.Connection, timeout: float) -> None:
    """Put ``conn``'s database in WAL mode, waiting out a writer.

    While another connection holds a write lock on a rollback-journal
    file, sqlite refuses the switch at once with ``database is locked``
    instead of waiting out the busy timeout, so retry it until
    ``timeout`` seconds have passed, then re-raise the last error.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as error:
            if "locked" not in str(error) or time.monotonic() >= deadline:
                raise
        time.sleep(0.01)


class ResultsDB:
    """One sqlite results database (safe across threads and processes).

    A handle may be shared between threads (serve workers report
    through one scheduler-owned handle); cross-process concurrency is
    sqlite's own WAL + busy-timeout machinery.  Every write runs in
    :meth:`transaction`; :meth:`record` is idempotent per run key.
    """

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._lock = threading.RLock()
        # autocommit: transactions are only the explicit ones of
        # transaction()
        self._conn = sqlite3.connect(path, timeout=timeout,
                                     check_same_thread=False,
                                     isolation_level=None)
        try:
            self._set_up(timeout)
        except sqlite3.DatabaseError:
            # a locked file, or one that is not an sqlite database
            self._conn.close()
            raise

    def _set_up(self, timeout: float) -> None:
        _switch_to_wal(self._conn, timeout)
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self.transaction() as conn:
            for statement in _SCHEMA:
                conn.execute(statement)
            # schema 1 carried a sim_backend column, "pure" on every
            # row since the simulator has had one engine; files older
            # still lack n_gpus
            present = {row[1] for row in conn.execute(
                "PRAGMA table_info(runs)")}
            if "sim_backend" in present:
                conn.execute("ALTER TABLE runs DROP COLUMN sim_backend")
            if "n_gpus" not in present:
                conn.execute("ALTER TABLE runs ADD COLUMN n_gpus "
                             "INTEGER NOT NULL DEFAULT 1")
            conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultsDB":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @contextlib.contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """Hold this handle's lock across one sqlite write transaction.

        Yields the connection.  The transaction commits when the block
        ends and rolls back when it raises.  A use nested inside
        another on the same thread joins the outer transaction, so
        :meth:`record` and the serve job queue's transitions commit
        together when a caller wraps them in one block.
        """
        with self._lock:
            if self._conn.in_transaction:
                yield self._conn
                return
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.rollback()
                raise

    def query(self, sql: str, params=()) -> List[tuple]:
        """Every row of one read statement, under this handle's lock."""
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def record(self, run_key: str, stats: RunStats, *,
               spec: Optional[Dict] = None, source: str = "",
               status: str = "done",
               wall_time_s: Optional[float] = None,
               config=None, config_hash: str = "",
               git_commit: Optional[str] = None,
               host: Optional[str] = None,
               n_gpus: Optional[int] = None) -> None:
        """Upsert one finished run and its flattened statistics.

        ``spec`` is the canonical request spec when the producer knows
        it (runners and serve workers do); it fills the denormalised
        workload/protocol/... columns.  ``config`` derives
        ``config_hash`` when one is not given.  Provenance defaults
        (commit, host, package version) are stamped here so no
        producer can forget them.
        """
        if config is not None and not config_hash:
            config_hash = provenance.config_hash(config)
        if git_commit is None:
            git_commit = provenance.git_commit()
        if host is None:
            host = provenance.host()
        info = spec or {}
        if n_gpus is None:
            # derive from the config when the producer has one, else
            # from the spec's overrides; single-GPU rows stay 1
            if config is not None:
                n_gpus = getattr(config, "n_gpus", 1)
            else:
                overrides = info.get("overrides") or {}
                n_gpus = int(overrides.get("n_gpus", 1))
        now = time.time()
        meta = ""
        ts = stats.timeseries
        if ts:
            meta = json.dumps(
                {k: v for k, v in ts.items() if k != "samples"},
                sort_keys=True)
        run_row = (
            run_key,
            info.get("workload", ""),
            info.get("protocol", ""),
            info.get("consistency", ""),
            info.get("preset", ""),
            info.get("scale"),
            info.get("seed"),
            json.dumps(spec, sort_keys=True) if spec else None,
            stats.config_desc,
            config_hash,
            git_commit,
            repro.__version__,
            host,
            source,
            status,
            wall_time_s,
            stats.cycles,
            meta,
            now,
            now,
            n_gpus,
        )
        stat_rows: List[tuple] = [
            (run_key, "counter", name, value, None)
            for name, value in stats.counters.items()
        ]
        stat_rows += [
            (run_key, "energy", name, float(value), None)
            for name, value in stats.energy.items()
        ]
        stat_rows += [
            (run_key, "histogram", name, None,
             json.dumps(hist.to_dict(), sort_keys=True))
            for name, hist in stats.histograms.items()
        ]
        ts_rows: List[tuple] = []
        for index, row in enumerate(ts.get("samples", []) if ts else []):
            cycle = row.get("cycle", 0)
            for name, value in row.items():
                if name != "cycle":
                    ts_rows.append((run_key, index, cycle, name, value))
        with self.transaction() as conn:
            conn.execute(
                f"INSERT INTO runs ({', '.join(RUN_COLUMNS)}) "
                f"VALUES ({', '.join('?' * len(RUN_COLUMNS))}) "
                "ON CONFLICT(run_key) DO UPDATE SET "
                + ", ".join(f"{c} = excluded.{c}"
                            for c in RUN_COLUMNS
                            if c not in ("run_key", "created_at")),
                run_row)
            conn.execute(
                "DELETE FROM stats WHERE run_key = ?", (run_key,))
            conn.execute(
                "DELETE FROM timeseries WHERE run_key = ?", (run_key,))
            conn.executemany(
                "INSERT INTO stats (run_key, kind, name, value, payload)"
                " VALUES (?, ?, ?, ?, ?)", stat_rows)
            conn.executemany(
                "INSERT INTO timeseries "
                "(run_key, sample, cycle, name, value)"
                " VALUES (?, ?, ?, ?, ?)", ts_rows)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def get_run(self, run_key: str) -> Optional[Dict]:
        """The ``runs`` row for one key as a dict, or None."""
        rows = self.query(f"{_SELECT_RUNS} WHERE run_key = ?", (run_key,))
        return dict(zip(RUN_COLUMNS, rows[0])) if rows else None

    def get_stats(self, run_key: str) -> Optional[RunStats]:
        """Rebuild the exact :class:`RunStats` recorded for one key."""
        run = self.get_run(run_key)
        if run is None:
            return None
        with self._lock:
            stat_rows = self._conn.execute(
                "SELECT kind, name, value, payload FROM stats "
                "WHERE run_key = ?", (run_key,)).fetchall()
            ts_rows = self._conn.execute(
                "SELECT sample, cycle, name, value FROM timeseries "
                "WHERE run_key = ? ORDER BY sample", (run_key,)
            ).fetchall()
        counters: Dict[str, int] = {}
        energy: Dict[str, float] = {}
        histograms: Dict[str, Histogram] = {}
        for kind, name, value, payload in stat_rows:
            if kind == "counter":
                counters[name] = value
            elif kind == "energy":
                energy[name] = float(value)
            elif kind == "histogram":
                histograms[name] = Histogram.from_dict(
                    name, json.loads(payload))
        timeseries: Dict = {}
        if run["timeseries_meta"]:
            timeseries = json.loads(run["timeseries_meta"])
            samples: List[Dict] = []
            for sample, cycle, name, value in ts_rows:
                while len(samples) <= sample:
                    samples.append({"cycle": cycle})
                samples[sample][name] = value
            timeseries["samples"] = samples
        return RunStats(
            config_desc=run["config_desc"],
            cycles=run["cycles"],
            counters=counters,
            energy=energy,
            histograms=histograms,
            timeseries=timeseries,
        )

    def lookup(self, run_key: str) -> Optional[RunStats]:
        """:meth:`get_stats` for a producer about to simulate the point.

        A read that raises (closed, locked or damaged database) warns
        and returns None, like a miss: a store read never fails the
        run that asked, which simulates the point instead.
        """
        try:
            return self.get_stats(run_key)
        except Exception as error:
            warnings.warn(
                f"results-db read failed for {run_key[:12]}…: "
                f"{type(error).__name__}: {error}",
                RuntimeWarning, stacklevel=2)
            return None

    def runs(self, workload: Optional[str] = None,
             protocol: Optional[str] = None,
             consistency: Optional[str] = None,
             commit: Optional[str] = None,
             preset: Optional[str] = None,
             status: Optional[str] = None,
             source: Optional[str] = None,
             limit: Optional[int] = None) -> List[Dict]:
        """Filtered ``runs`` rows, newest first.

        ``commit`` matches by prefix so short digests work the way
        they do on the git command line.
        """
        clauses, params = [], []
        for column, value in (("workload", workload),
                              ("protocol", protocol),
                              ("consistency", consistency),
                              ("preset", preset),
                              ("status", status),
                              ("source", source)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if commit is not None:
            clauses.append("git_commit LIKE ?")
            params.append(commit + "%")
        sql = _SELECT_RUNS
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY updated_at DESC, run_key"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [dict(zip(RUN_COLUMNS, row))
                for row in self.query(sql, params)]

    def counter(self, run_key: str, name: str) -> Optional[int]:
        """One counter of one run (None when absent)."""
        rows = self.query(
            "SELECT value FROM stats WHERE run_key = ? "
            "AND kind = 'counter' AND name = ?", (run_key, name))
        return rows[0][0] if rows else None

    def count(self) -> int:
        return self.query("SELECT COUNT(*) FROM runs")[0][0]

    def summary(self) -> Dict:
        """Fleet-level aggregates for reports and the CLI."""
        with self._lock:
            runs, = self._conn.execute(
                "SELECT COUNT(*) FROM runs").fetchone()
            distinct = self._conn.execute(
                "SELECT COUNT(DISTINCT workload), "
                "COUNT(DISTINCT protocol || '-' || consistency), "
                "COUNT(DISTINCT git_commit), COUNT(DISTINCT host) "
                "FROM runs").fetchone()
            by_source = dict(self._conn.execute(
                "SELECT source, COUNT(*) FROM runs "
                "GROUP BY source").fetchall())
            wall, = self._conn.execute(
                "SELECT COALESCE(SUM(wall_time_s), 0) FROM runs"
            ).fetchone()
        return {
            "runs": runs,
            "workloads": distinct[0],
            "configs": distinct[1],
            "commits": distinct[2],
            "hosts": distinct[3],
            "by_source": by_source,
            "wall_time_s": wall,
        }
