"""Tests for the provenance-stamped results database.

The database is only trustworthy if (a) the RunStats -> rows ->
RunStats round trip is *exact* for arbitrary stats (ints stay ints,
histograms keep their buckets, time-series reassemble), (b) many
concurrent writers cannot corrupt it and the last write wins whole,
(c) a row written by the batch runner and one written by a serve
worker for the same run key are indistinguishable at the stats level,
and (d) a row either producer wrote answers the other's repeat run.
"""

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Consistency, Protocol, VisibilityPolicy
from repro.db.provenance import config_hash, git_commit
from repro.db.query import comparison_rows, latest_by_point, \
    matrix_result, sweep_result
from repro.db.report import render_report, write_report
from repro.db.store import ResultsDB
from repro.harness.runner import ExperimentRunner
from repro.stats.collector import RunStats
from repro.stats.histogram import Histogram

KEY_A = "a" * 64
KEY_B = "b" * 64


def make_stats(counters=None, energy=None, histograms=None,
               timeseries=None, cycles=1234,
               desc="gtsc/rc 2SM x 2w") -> RunStats:
    return RunStats(config_desc=desc, cycles=cycles,
                    counters=dict(counters or {"l1_hit": 7}),
                    energy=dict(energy or {}),
                    histograms=dict(histograms or {}),
                    timeseries=dict(timeseries or {}))


# ---------------------------------------------------------------------------
# exact round trip (property-based)
# ---------------------------------------------------------------------------

_names = st.text("abcdefgh_", min_size=1, max_size=10)


def _histogram(draw_values):
    def build(item):
        name, values = item
        histogram = Histogram(name)
        for value in values:
            histogram.add(value)
        return histogram
    return st.tuples(_names, draw_values).map(build)


_stats_strategy = st.builds(
    make_stats,
    counters=st.dictionaries(
        _names, st.integers(min_value=0, max_value=2**62),
        max_size=6),
    energy=st.dictionaries(
        _names,
        st.floats(min_value=0, max_value=1e12, allow_nan=False),
        max_size=4),
    histograms=st.lists(
        _histogram(st.lists(st.integers(0, 10_000), min_size=1,
                            max_size=8)),
        max_size=3, unique_by=lambda h: h.name,
    ).map(lambda hs: {h.name: h for h in hs}),
    timeseries=st.one_of(
        st.just({}),
        st.builds(
            lambda interval, samples: {
                "interval": interval,
                "columns": ["cycle", "ipc"],
                "samples": [
                    {"cycle": i * interval, "ipc": value}
                    for i, value in enumerate(samples)
                ],
            },
            st.integers(1, 1000),
            st.lists(st.one_of(st.integers(0, 10**9),
                               st.floats(0, 1e6, allow_nan=False)),
                     min_size=1, max_size=5),
        ),
    ),
    cycles=st.integers(min_value=0, max_value=2**62),
    desc=st.text(max_size=30),
)


@settings(max_examples=60, deadline=None)
@given(stats=_stats_strategy)
def test_round_trip_is_exact_for_arbitrary_stats(stats, tmp_path_factory):
    db = ResultsDB(str(tmp_path_factory.mktemp("db") / "r.db"))
    db.record(KEY_A, stats)
    rebuilt = db.get_stats(KEY_A)
    assert rebuilt == stats
    # dataclass equality covers it, but the failure mode this guards
    # against is type coercion — make it explicit
    for name, value in stats.counters.items():
        assert type(rebuilt.counters[name]) is type(value)


def test_round_trip_preserves_real_simulation():
    runner = ExperimentRunner(preset="tiny", scale=0.3, seed=7)
    stats = runner.run("BFS", Protocol.GTSC, Consistency.RC)
    db = ResultsDB(":memory:")
    db.record(KEY_A, stats)
    assert db.get_stats(KEY_A) == stats
    assert db.get_stats(KEY_B) is None


def test_record_is_last_write_wins(tmp_path):
    db = ResultsDB(str(tmp_path / "r.db"))
    db.record(KEY_A, make_stats(counters={"x": 1}), source="first")
    db.record(KEY_A, make_stats(counters={"y": 2}), source="second")
    assert db.count() == 1
    run = db.get_run(KEY_A)
    assert run["source"] == "second"
    assert db.get_stats(KEY_A).counters == {"y": 2}


def test_provenance_is_stamped_on_every_row(tmp_path):
    from repro.config import GPUConfig

    config = GPUConfig.tiny()
    db = ResultsDB(str(tmp_path / "r.db"))
    db.record(KEY_A, make_stats(), config=config,
              wall_time_s=1.25, source="runner")
    run = db.get_run(KEY_A)
    assert run["git_commit"] == git_commit()
    assert run["config_hash"] == config_hash(config)
    assert run["host"]
    assert run["repro_version"]
    assert run["wall_time_s"] == 1.25
    # same config -> same hash; different lease -> different hash
    assert config_hash(GPUConfig.tiny()) == run["config_hash"]
    assert config_hash(GPUConfig.tiny(lease=99)) != run["config_hash"]


# ---------------------------------------------------------------------------
# concurrent writers
# ---------------------------------------------------------------------------

def _hammer(path: str, worker: int, keys, writes: int) -> None:
    db = ResultsDB(path)
    for round_no in range(writes):
        for key in keys:
            db.record(key, make_stats(
                counters={"worker": worker, "check": worker * 1000},
                cycles=worker), source=f"w{worker}")


def test_concurrent_writers_last_write_wins_no_corruption(tmp_path):
    path = str(tmp_path / "r.db")
    keys = [KEY_A, KEY_B]
    workers = 4
    procs = [
        multiprocessing.Process(target=_hammer,
                                args=(path, i, keys, 15))
        for i in range(workers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(120)
        assert proc.exitcode == 0
    db = ResultsDB(path)
    assert db.count() == len(keys)
    check = db._conn.execute("PRAGMA integrity_check").fetchone()[0]
    assert check == "ok"
    for key in keys:
        stats = db.get_stats(key)
        winner = stats.counters["worker"]
        assert winner in range(workers)
        # child rows and the runs row came from ONE transaction, not
        # an interleaving of two writers
        assert stats.counters["check"] == winner * 1000
        assert stats.cycles == winner
        assert db.get_run(key)["source"] == f"w{winner}"


def _hold_write_lock(path, seconds, locked):
    """Hold a rollback-journal write lock on ``path`` for ``seconds``."""
    conn = sqlite3.connect(path, isolation_level=None)
    try:
        conn.execute("BEGIN IMMEDIATE")
        locked.set()
        time.sleep(seconds)
        conn.execute("ROLLBACK")
    finally:
        conn.close()


def _open_behind_writer(path, hold_s, timeout):
    """Open ``ResultsDB(path, timeout)`` while another connection holds
    a write lock for ``hold_s``; returns (db or error, seconds taken)."""
    locked = threading.Event()
    holder = threading.Thread(target=_hold_write_lock,
                              args=(path, hold_s, locked))
    holder.start()
    try:
        assert locked.wait(10)
        start = time.monotonic()
        try:
            outcome = ResultsDB(path, timeout=timeout)
        except sqlite3.OperationalError as error:
            outcome = error
        return outcome, time.monotonic() - start
    finally:
        holder.join(10)
        assert not holder.is_alive()


def test_wal_switch_waits_out_a_concurrent_writer(tmp_path):
    db, _ = _open_behind_writer(str(tmp_path / "r.db"), hold_s=0.3,
                                timeout=5)
    assert isinstance(db, ResultsDB)
    mode = db._conn.execute("PRAGMA journal_mode").fetchone()[0]
    db.close()
    assert mode == "wal"


def test_wal_switch_gives_up_after_the_timeout(tmp_path):
    error, waited = _open_behind_writer(str(tmp_path / "r.db"),
                                        hold_s=2.0, timeout=0.5)
    assert isinstance(error, sqlite3.OperationalError)
    assert "locked" in str(error)
    assert waited >= 0.5


# ---------------------------------------------------------------------------
# runner-written and serve-written rows agree (acceptance criterion)
# ---------------------------------------------------------------------------

def test_runner_and_serve_write_identical_stats_rows(tmp_path):
    from repro.serve import schema
    from repro.serve.jobs import JobStore
    from repro.serve.scheduler import Scheduler

    runner = ExperimentRunner(preset="tiny", scale=0.3, seed=7,
                              db=str(tmp_path / "runner.db"))
    runner.run("BFS", Protocol.GTSC, Consistency.RC)
    db_runner = runner.results_db
    row = db_runner.runs()[0]
    key = row["run_key"]
    spec = schema.validate_spec(json.loads(row["spec"]))
    assert schema.spec_key(spec) == key

    store = JobStore(str(tmp_path / "jobs.jsonl"))
    scheduler = Scheduler(store, jobs=1,
                          db=str(tmp_path / "serve.db"))
    scheduler.start()
    try:
        scheduler.submit(spec).future.result(timeout=120)
    finally:
        scheduler.stop()
    db_serve = scheduler.db

    sql = ("SELECT kind, name, value, payload FROM stats "
           "WHERE run_key = ? ORDER BY kind, name")
    assert db_runner._conn.execute(sql, (key,)).fetchall() == \
        db_serve._conn.execute(sql, (key,)).fetchall()
    serve_row = db_serve.get_run(key)
    assert serve_row["source"] == "serve"
    assert serve_row["wall_time_s"] is not None
    assert serve_row["config_hash"] == row["config_hash"]
    assert db_serve.get_stats(key) == db_runner.get_stats(key)


def test_runner_and_scheduler_answer_from_one_store(tmp_path):
    """A point served by the scheduler costs a runner sharing its
    database no simulation, and a point the runner recorded is
    answered from the database with no job."""
    from repro.serve import JobStore, Scheduler, make_spec

    path = str(tmp_path / "repro.db")
    store = JobStore(str(tmp_path / "jobs.jsonl"))
    scheduler = Scheduler(store, jobs=1, db=path)
    scheduler.start()
    try:
        served = scheduler.submit(make_spec(
            "HS", preset="tiny", scale=0.1, seed=7)).future.result(
                timeout=120)
    finally:
        scheduler.stop()

    runner = ExperimentRunner(preset="tiny", scale=0.1, seed=7, db=path)
    assert runner.run("HS", Protocol.GTSC, Consistency.RC) == served
    assert runner.simulations_run == 0
    recorded = runner.run("KM", Protocol.GTSC, Consistency.RC)
    assert runner.simulations_run == 1

    # no workers: only the database can answer
    scheduler = Scheduler(store, jobs=0, db=path)
    submission = scheduler.submit(
        make_spec("KM", preset="tiny", scale=0.1, seed=7))
    assert submission.cached and submission.job_id is None
    assert submission.future.result(timeout=1) == recorded
    assert store.counts()["pending"] == 0
    store.close()


def test_run_key_memo_hit_is_recorded_like_a_disk_cache_hit(tmp_path):
    runner = ExperimentRunner(preset="tiny", scale=0.3, seed=7,
                              db=str(tmp_path / "runner.db"))
    runner.run("BFS", Protocol.GTSC, Consistency.RC)
    [row] = runner.results_db.runs()
    assert row["source"] == "runner"
    assert row["wall_time_s"] is not None

    runner.run("BFS", Protocol.GTSC, Consistency.RC,
               visibility=VisibilityPolicy.DELAY)
    assert runner.simulations_run == 1
    [row] = runner.results_db.runs()
    assert row["source"] == "runner-cache"
    assert row["wall_time_s"] is None
    assert json.loads(row["spec"])["overrides"] == {"visibility": "delay"}
    # a sweep rebuilt from spec overrides sees the spelling
    swept = sweep_result(runner.results_db, "visibility")
    assert swept.rows == [["BFS", row["cycles"]]]


def test_db_failure_never_breaks_the_run(tmp_path):
    runner = ExperimentRunner(preset="tiny", scale=0.3, seed=7,
                              db=str(tmp_path / "ok.db"))
    runner.results_db._conn.close()  # simulate a dead database
    with pytest.warns(RuntimeWarning, match="results-db record"):
        stats = runner.run("BFS", Protocol.GTSC, Consistency.RC)
    assert stats.cycles > 0


def test_db_failure_never_fails_a_served_job(tmp_path):
    from repro.serve import JobStore, Scheduler, make_spec

    db = ResultsDB(str(tmp_path / "dead.db"))
    db._conn.close()  # simulate a dead database
    store = JobStore(str(tmp_path / "jobs.jsonl"))
    scheduler = Scheduler(store, jobs=1, db=db,
                          execute=lambda spec: make_stats())
    scheduler.start()
    try:
        with pytest.warns(RuntimeWarning, match="results-db record"):
            submission = scheduler.submit(
                make_spec("HS", preset="tiny", scale=0.1))
            stats = submission.future.result(timeout=30)
    finally:
        scheduler.stop()
    assert stats.cycles == 1234
    assert store.get(submission.job_id).state == "done"
    store.close()


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _seed_matrix(db: ResultsDB) -> None:
    runner = ExperimentRunner(preset="tiny", scale=0.3, seed=7,
                              db=db)
    runner.matrix("BFS")
    runner.baseline("BFS")


def test_matrix_result_normalises_to_baseline(tmp_path):
    db = ResultsDB(str(tmp_path / "r.db"))
    _seed_matrix(db)
    assert db.count() == 5
    result = matrix_result(db)
    assert [row[0] for row in result.rows] == ["BFS"]
    assert result.headers == ["benchmark", "TC-SC", "TC-RC",
                              "G-TSC-SC", "G-TSC-RC", "normalised"]
    assert result.rows[0][-1] == "baseline"
    values = result.rows[0][1:-1]
    assert all(isinstance(v, float) and v > 0 for v in values)
    assert result.summary  # the geomean lines the paper quotes
    latest = latest_by_point(db)
    # points key on (workload, protocol, consistency, n_gpus) so a
    # cluster run never shadows the single-GPU point
    assert ("BFS", "gtsc", "rc", 1) in latest


def test_comparison_rows_carry_key_metrics(tmp_path):
    db = ResultsDB(str(tmp_path / "r.db"))
    _seed_matrix(db)
    rows = comparison_rows(db)
    assert len(rows) == 5
    for row in rows:
        assert row["cycles"] > 0
        assert 0.0 <= row["l1_hit_rate"] <= 1.0


def test_report_renders_from_queries_alone(tmp_path):
    db = ResultsDB(str(tmp_path / "r.db"))
    _seed_matrix(db)
    text = render_report(db, title="unit report")
    assert "unit report" in text
    assert "Fleet summary" in text
    assert "G-TSC-RC" in text
    assert "Provenance appendix" in text
    assert git_commit()[:12] in text
    path = write_report(db, str(tmp_path / "out" / "report.html"))
    assert os.path.exists(path)


def test_empty_database_report_still_renders(tmp_path):
    db = ResultsDB(str(tmp_path / "r.db"))
    text = render_report(db)
    assert "No matrix points recorded yet" in text


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------

def _cli(tmp_path, *argv):
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=600)


def test_cli_db_query_and_report_smoke(tmp_path):
    db = ResultsDB(str(tmp_path / "repro.db"))
    _seed_matrix(db)
    db.close()

    proc = _cli(tmp_path, "db", "query", "--db", "repro.db")
    assert proc.returncode == 0, proc.stderr
    assert "gtsc-rc" in proc.stdout
    assert "5 run(s)" in proc.stdout

    proc = _cli(tmp_path, "db", "query", "--db", "repro.db",
                "--summary")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["runs"] == 5

    proc = _cli(tmp_path, "db", "report", "--db", "repro.db",
                "--output", "report.html")
    assert proc.returncode == 0, proc.stderr
    html = (tmp_path / "report.html").read_text()
    assert "Provenance appendix" in html

    proc = _cli(tmp_path, "db", "query", "--db", "missing.db")
    assert proc.returncode != 0
    assert "no results database" in proc.stderr


def _junk_file(tmp_path):
    junk = tmp_path / "junk.db"
    junk.write_text("not an sqlite database\n" * 64)
    return junk


def test_junk_file_is_refused_and_its_connection_closed(tmp_path,
                                                        monkeypatch):
    opened = []
    connect = sqlite3.connect

    def recording_connect(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(sqlite3, "connect", recording_connect)
    with pytest.raises(sqlite3.DatabaseError, match="not a database"):
        ResultsDB(str(_junk_file(tmp_path)))
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        opened[0].execute("SELECT 1")


@pytest.mark.parametrize("argv", [
    ["run", "table2", "--preset", "tiny"],
    ["db", "query"],
    ["serve", "--port", "0"],
], ids=["run", "db-query", "serve"])
def test_cli_exits_with_one_line_on_a_junk_database(tmp_path, argv):
    from repro.cli import main

    junk = _junk_file(tmp_path)
    if argv[0] == "serve":
        argv = argv + ["--state-dir", str(tmp_path / "state")]
    # a sqlite3 error escaping main() fails the test as an error
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--db", str(junk)])
    message = str(exit_info.value.code)
    assert str(junk) in message and "--no-db" in message
    assert "\n" not in message


# ---------------------------------------------------------------------------
# store plumbing
# ---------------------------------------------------------------------------

def test_db_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "r.db"
    db = ResultsDB(str(path))
    db.record(KEY_A, make_stats())
    assert path.exists()


def test_schema_version_is_stamped(tmp_path):
    from repro.db.store import SCHEMA_VERSION

    path = str(tmp_path / "r.db")
    ResultsDB(path).record(KEY_A, make_stats())
    conn = sqlite3.connect(path)
    assert conn.execute("PRAGMA user_version").fetchone()[0] == \
        SCHEMA_VERSION
    conn.close()
