"""Prometheus text exposition + per-job latency telemetry.

Covers the pure renderer (:mod:`repro.obs.prom`), the scheduler's
latency histograms, and the wire-level ``metrics``/``jobs`` replies
that carry both.
"""

from __future__ import annotations

import re

from repro.obs.prom import render_prometheus, split_snapshot
from repro.serve import JobStore, Scheduler, ServeClient, make_spec
from tests.test_serve_server import fake_stats, serve_test

#: the exposition-format grammar a sample line must match
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{quantile=\"[0-9.]+\"\})? "
    r"-?[0-9.e+-]+$")


# ---------------------------------------------------------------------------
# the renderer
# ---------------------------------------------------------------------------

def test_render_counters_gauges_and_summaries():
    text = render_prometheus(
        counters={"submits": 3},
        gauges={"queue_depth": 2},
        summaries={"job_simulate_ms": {
            "count": 4, "sum_ms": 100, "mean_ms": 25.0,
            "p50_ms": 15, "p95_ms": 63, "p99_ms": 63,
            "max_ms": 60}})
    lines = text.splitlines()
    assert "# TYPE repro_serve_submits_total counter" in lines
    assert "repro_serve_submits_total 3" in lines
    assert "# TYPE repro_serve_queue_depth gauge" in lines
    assert "repro_serve_queue_depth 2" in lines
    assert "# TYPE repro_serve_job_simulate_ms summary" in lines
    assert 'repro_serve_job_simulate_ms{quantile="0.5"} 15' in lines
    assert "repro_serve_job_simulate_ms_sum 100" in lines
    assert "repro_serve_job_simulate_ms_count 4" in lines
    for line in lines:
        if not line.startswith("# "):
            assert _SAMPLE_RE.match(line), line
    assert text.endswith("\n")


def test_render_empty_inputs_is_empty():
    assert render_prometheus() == ""


def test_render_sanitises_metric_names():
    text = render_prometheus(counters={"bad-name.x": 1})
    assert "repro_serve_bad_name_x_total 1" in text


def test_split_snapshot_classifies_queue_state_as_gauges():
    split = split_snapshot({"submits": 9, "jobs_pending": 2,
                            "jobs_done": 5, "jobs_leased": 1})
    assert split["counters"] == {"submits": 9, "jobs_done": 5}
    assert split["gauges"] == {"jobs_pending": 2, "jobs_leased": 1}


# ---------------------------------------------------------------------------
# scheduler latency histograms
# ---------------------------------------------------------------------------

def test_pool_records_latency_per_job(tmp_path):
    store = JobStore(str(tmp_path / "jobs.jsonl"))
    scheduler = Scheduler(store, jobs=1, execute=lambda s: fake_stats(),
                          poll_interval=0.01)
    scheduler.start()
    try:
        submissions = [scheduler.submit(make_spec(w, preset="tiny",
                                                  scale=0.1))
                       for w in ("HS", "KM")]
        for submission in submissions:
            submission.future.result(timeout=10)
    finally:
        scheduler.stop()
        store.close()
    summary = scheduler.latency_summary()
    assert set(summary) == {"job_queue_wait_ms", "job_simulate_ms"}
    for entry in summary.values():
        assert entry["count"] == 2
        assert entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]
        assert entry["max_ms"] >= 0


# ---------------------------------------------------------------------------
# over the wire
# ---------------------------------------------------------------------------

def test_metrics_json_reply_includes_latency(tmp_path):
    async def body(server, call):
        client = ServeClient(port=server.port)
        spec = make_spec("HS", preset="tiny", scale=0.1, seed=7)
        await call(client.submit, dict(spec))
        reply = await call(client.metrics)
        assert reply["ok"]
        assert reply["snapshot"]["executed"] == 1
        latency = reply["latency"]
        assert latency["job_simulate_ms"]["count"] == 1
        assert latency["job_queue_wait_ms"]["count"] == 1
        jobs = await call(client.jobs)
        assert jobs["latency"] == latency

    serve_test(tmp_path, body, execute=lambda spec: fake_stats())


def test_metrics_prometheus_format_over_the_wire(tmp_path):
    async def body(server, call):
        client = ServeClient(port=server.port)
        spec = make_spec("HS", preset="tiny", scale=0.1, seed=7)
        await call(client.submit, dict(spec))
        reply = await call(client.metrics, "prometheus")
        assert reply["ok"] and reply["format"] == "prometheus"
        text = reply["text"]
        assert "repro_serve_executed_total 1" in text
        assert "repro_serve_queue_depth 0" in text
        assert "# TYPE repro_serve_job_simulate_ms summary" in text
        assert "repro_serve_job_simulate_ms_count 1" in text
        # the op-level counters the collector tracks ride along
        assert "repro_serve_serve_requests_total" in text

    serve_test(tmp_path, body, execute=lambda spec: fake_stats())


def test_cli_jobs_metrics_text(tmp_path, capsys):
    async def body(server, call):
        from repro.cli import main

        code = await call(main, ["jobs", "--port", str(server.port),
                                 "--metrics-text"])
        assert code == 0

    serve_test(tmp_path, body, execute=lambda spec: fake_stats())
    out = capsys.readouterr().out
    assert "# TYPE repro_serve_queue_depth gauge" in out
    assert "repro_serve_jobs_done_total" in out


def test_metrics_unknown_format_is_bad_request(tmp_path):
    async def body(server, call):
        import pytest

        from repro.serve import ServeError

        client = ServeClient(port=server.port, retries=1)
        with pytest.raises(ServeError, match="unknown metrics format"):
            await call(client.metrics, "xml")

    serve_test(tmp_path, body, execute=lambda spec: fake_stats())
