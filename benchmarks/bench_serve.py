"""Submit-to-result latency of the experiment service (not a figure).

Benchmarks the three ways a ``submit`` resolves, over the real TCP
protocol against an in-process server:

* **cold** — a never-seen point: queue + lease + one tiny simulation;
* **cached** — the same point again: answered from the results
  database without touching the queue (this is the path a popular point takes
  under heavy traffic, so it must stay far below cold);
* **coalesced** — eight concurrent identical submissions of a fresh
  point: one simulation, eight answers (measures the full fan-in).

Cold/coalesced rounds use a fresh seed each time so every round pays
the simulation; the tiny preset keeps that cost in tenths of a
second.  The numbers feed the CI regression gate alongside the
simulator-speed benchmarks.

The **fleet load benchmarks** measure the dispatcher + remote-worker
configuration end to end: a ``jobs=0`` dispatcher with 1/2/4 real
``serve worker`` subprocesses leasing over the wire, driven by
concurrent clients.  ``test_fleet_cold_throughput`` submits batches
of distinct never-seen points (every job pays a simulation — the
honest scaling number, reported as ``jobs_per_s`` in ``extra_info``);
``test_fleet_zipf_load`` replays a zipf-skewed request mix, where
single-flight dedup and the shared result store should absorb most of
the load.  ``test_fleet_scaling_gate`` asserts the acceptance bound —
4 workers >= 2x the 1-worker cold throughput — on hosts with >= 4
CPUs (worker processes cannot scale past the physical cores).
"""

from __future__ import annotations

import asyncio
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.serve import Scheduler, ServeClient, ServeServer, make_spec

BENCH_WORKLOAD = "HS"
BENCH_SCALE = 0.1
#: fleet jobs are deliberately heavier (~100 ms) so simulation cost,
#: not wire overhead, is what the scaling numbers measure
FLEET_SCALE = 1.0
FLEET_COLD_JOBS = 8


class LiveServer:
    """A real server on an ephemeral port, its loop on a thread."""

    def __init__(self, root, jobs: int = 1,
                 queue_limit: int = 64) -> None:
        self.scheduler = Scheduler(
            db=str(root / "repro.db"), jobs=jobs,
            queue_limit=queue_limit, poll_interval=0.005)
        self.server = ServeServer(self.scheduler, port=0, quiet=True)
        self.loop = asyncio.new_event_loop()
        self.ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        if not self.ready.wait(10):
            raise RuntimeError("server failed to start")

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self.loop.call_soon(self.ready.set)
        self.loop.run_forever()

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(), self.loop)
        future.result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    server = LiveServer(tmp_path_factory.mktemp("serve-bench"))
    yield server
    server.stop()


def fresh_seeds(start):
    counter = [start]

    def next_seed():
        counter[0] += 1
        return counter[0]

    return next_seed


def test_submit_latency_cold(benchmark, live_server):
    """Queue + lease + simulate + answer, nothing pre-warmed."""
    client = ServeClient(port=live_server.port)
    next_seed = fresh_seeds(10_000)

    def once():
        return client.submit(make_spec(
            BENCH_WORKLOAD, preset="tiny", scale=BENCH_SCALE,
            seed=next_seed()))

    reply = benchmark.pedantic(once, rounds=3, iterations=1)
    assert reply["ok"] and not reply["cached"]
    assert reply["stats"]["cycles"] > 0


def test_submit_latency_cached(benchmark, live_server):
    """The hot path: answered from the results database, no queue."""
    client = ServeClient(port=live_server.port)
    spec = make_spec(BENCH_WORKLOAD, preset="tiny",
                     scale=BENCH_SCALE, seed=2018)
    warm = client.submit(spec)
    assert warm["ok"]

    def once():
        return client.submit(spec)

    reply = benchmark.pedantic(once, rounds=5, iterations=3)
    assert reply["cached"]


def test_submit_latency_coalesced(benchmark, live_server):
    """Eight racing clients, one simulation, eight identical answers."""
    next_seed = fresh_seeds(30_000)
    executed_before = live_server.scheduler.executed
    bursts = []

    def burst():
        spec = make_spec(BENCH_WORKLOAD, preset="tiny",
                         scale=BENCH_SCALE, seed=next_seed())
        bursts.append(spec["seed"])
        replies = [None] * 8

        def one(index):
            replies[index] = ServeClient(
                port=live_server.port).submit(spec)

        threads = [threading.Thread(target=one, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return replies

    replies = benchmark.pedantic(burst, rounds=3, iterations=1)
    assert all(reply["ok"] for reply in replies)
    assert len({str(sorted(reply["stats"].items()))
                for reply in replies}) == 1
    # one simulation per burst, never eight
    executed = live_server.scheduler.executed - executed_before
    assert executed == len(bursts)


# ---------------------------------------------------------------------------
# the fleet: dispatcher + real worker subprocesses
# ---------------------------------------------------------------------------

class Fleet:
    """A jobs=0 dispatcher plus N ``serve worker`` subprocesses."""

    def __init__(self, root, workers: int) -> None:
        self.workers = workers
        self.live = LiveServer(root, jobs=0, queue_limit=256)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + \
            env.get("PYTHONPATH", "")
        self.procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "worker", "--connect", f"127.0.0.1:{self.port}",
                 "--poll-interval", "0.02",
                 "--lease-duration", "60",
                 "--name", f"bench-w{index}"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            for index in range(workers)
        ]

    @property
    def port(self) -> int:
        return self.live.port

    def warm_up(self, seeds) -> None:
        """Pay worker-process start-up cost outside the measurement:
        keep the queue fed until every worker has leased at least
        once (a fast-starting worker must not be the whole fleet the
        scaling numbers see)."""
        while True:
            seen = {job.worker
                    for job in self.live.scheduler.store.jobs()
                    if job.worker.startswith("bench-")}
            if len(seen) >= self.workers:
                return
            assert all(proc.poll() is None for proc in self.procs), \
                "a fleet worker died during warm-up"
            submit_many(self.port, [seeds() for _ in
                                    range(self.workers)],
                        scale=FLEET_SCALE)

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait(timeout=30)
        self.live.stop()


def submit_many(port: int, seeds, scale: float):
    """Submit one spec per seed from concurrent clients; returns the
    replies once all have resolved."""
    replies = [None] * len(seeds)

    def one(index: int, seed: int) -> None:
        replies[index] = ServeClient(port=port).submit(make_spec(
            BENCH_WORKLOAD, preset="tiny", scale=scale, seed=seed))

    threads = [threading.Thread(target=one, args=(index, seed))
               for index, seed in enumerate(seeds)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies


#: cold jobs/sec per fleet size, for the scaling gate below
FLEET_RESULTS: dict = {}


@pytest.fixture(scope="module", params=[1, 2, 4],
                ids=lambda n: f"{n}w")
def fleet(request, tmp_path_factory):
    fleet = Fleet(tmp_path_factory.mktemp("fleet-bench"),
                  workers=request.param)
    fleet.warm_up(fresh_seeds(50_000 + request.param * 1_000))
    yield fleet
    fleet.stop()


def test_fleet_cold_throughput(benchmark, fleet):
    """Distinct never-seen points: every job pays a simulation, so
    jobs/sec measures real fleet execution capacity."""
    next_seed = fresh_seeds(100_000 + fleet.workers * 10_000)
    durations = []

    def round_() -> list:
        seeds = [next_seed() for _ in range(FLEET_COLD_JOBS)]
        started = time.perf_counter()
        replies = submit_many(fleet.port, seeds, scale=FLEET_SCALE)
        durations.append(time.perf_counter() - started)
        return replies

    replies = benchmark.pedantic(round_, rounds=2, iterations=1)
    assert all(reply["ok"] and not reply["cached"]
               and not reply["coalesced"] for reply in replies)
    jobs_per_s = FLEET_COLD_JOBS / min(durations)
    FLEET_RESULTS[fleet.workers] = jobs_per_s
    benchmark.extra_info["workers"] = fleet.workers
    benchmark.extra_info["jobs_per_s"] = round(jobs_per_s, 2)


@pytest.fixture(scope="module")
def zipf_fleet(tmp_path_factory):
    fleet = Fleet(tmp_path_factory.mktemp("fleet-zipf"), workers=2)
    fleet.warm_up(fresh_seeds(60_000))
    yield fleet
    fleet.stop()


def test_fleet_zipf_load(benchmark, zipf_fleet):
    """A zipf-skewed request mix (the realistic shape of sweep
    traffic: a few hot points, a long cold tail) across 16 concurrent
    clients — single-flight dedup and the shared store must keep
    simulations at <= one per distinct point."""
    CLIENTS, REQUESTS, SPECS = 16, 8, 16
    base = fresh_seeds(200_000)
    executed_before = [zipf_fleet.live.scheduler.executed]

    def round_() -> list:
        # a fresh population each round so every round re-pays the
        # distinct simulations (zipf weights: 1/rank^1.1)
        seeds = [base() for _ in range(SPECS)]
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(SPECS)]
        replies = [None] * CLIENTS
        def one(index: int) -> None:
            rng = random.Random(1000 + index)
            client = ServeClient(port=zipf_fleet.port)
            replies[index] = [
                client.submit(make_spec(
                    BENCH_WORKLOAD, preset="tiny", scale=FLEET_SCALE,
                    seed=rng.choices(seeds, weights)[0]))
                for _ in range(REQUESTS)
            ]
            client.close()
        threads = [threading.Thread(target=one, args=(index,))
                   for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [reply for chunk in replies for reply in chunk]

    replies = benchmark.pedantic(round_, rounds=2, iterations=1)
    assert all(reply["ok"] for reply in replies)
    executed = zipf_fleet.live.scheduler.executed - \
        executed_before[0]
    # dedup held: at most one simulation per distinct point per round
    assert executed <= SPECS * 2
    benchmark.extra_info["requests_per_round"] = CLIENTS * REQUESTS
    benchmark.extra_info["distinct_specs"] = SPECS


def test_fleet_scaling_gate():
    """Acceptance: 4 workers >= 2x 1-worker cold throughput.  Worker
    processes cannot scale past physical cores, so the bound is only
    meaningful on multi-core hosts."""
    if 1 not in FLEET_RESULTS or 4 not in FLEET_RESULTS:
        pytest.skip("cold-throughput benchmarks did not run")
    ratio = FLEET_RESULTS[4] / FLEET_RESULTS[1]
    if (os.cpu_count() or 1) < 4:
        pytest.skip(f"{os.cpu_count()} CPU(s): fleet scaling not "
                    f"measurable (observed {ratio:.2f}x)")
    assert ratio >= 2.0, (
        f"4-worker fleet is only {ratio:.2f}x the 1-worker cold "
        f"throughput ({FLEET_RESULTS[4]:.2f} vs "
        f"{FLEET_RESULTS[1]:.2f} jobs/s)")
