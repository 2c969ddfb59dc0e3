"""The benchmark workloads (the paper report and two simulation sets)
and the timing runner they share.

Every workload exposes the same surface to ``run.py``:

* ``cold_start()`` — one fresh-interpreter set-up, in host seconds;
* ``run_pass(traced)`` — one pass over the workload's fixed operation
  list, returning a :class:`Pass` that times every operation on its
  own (with a cProfile record when traced);
* ``check()`` — correctness checks run outside the timed phase,
  returning ``(attempted, failure messages)``;
* ``layer_counts()`` — the simulated counts and the wrapped-call timings
  of the per-layer record;
* ``peak_rss_mb()`` — host memory high-water mark of this process.

An operation is one simulation point resolved by the runner.  A pass is
deterministic in its inputs: two passes of one workload with one seed
run the same operations and simulate identical RunStats, which
``run.py`` checks through :attr:`Pass.digest`.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.config import Consistency, Protocol
from repro.db.store import ResultsDB
from repro.gpu.gpu import make_gpu
from repro.harness import experiments
from repro.harness import runner as runner_module
from repro.harness.report import build_report
from repro.harness.runner import ExperimentRunner, point_of
from repro.obs import Observability, ProtocolAuditLog, replay_audit
from repro.stats.collector import RunStats
from repro.validate import check_gtsc_log
from repro.workloads import COHERENT_NAMES
from yardstick import Yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: least host seconds between yardstick samples: every simulation of
#: the paper-preset sets gets its own, while the short points of the
#: report share one between several
SAMPLE_GAP_S = 0.2


@dataclass
class Pass:
    """What one pass measured."""

    wall_s: float
    #: each operation's host seconds and the yardstick marks taken
    #: before and after it (see :meth:`Yardstick.nominal`), in run order
    op_s: Dict[object, Tuple[float, int, int]]
    #: simulated instructions the pass produced
    instructions: int
    #: sha256 over the pass's RunStats in a fixed order
    digest: str
    #: workload-specific numbers printed beside the metrics
    extra: Dict[str, float] = field(default_factory=dict)
    profile: Optional[pstats.Stats] = None


def stats_digest(stats: List[RunStats]) -> str:
    """sha256 over RunStats, in the order given.

    ``total_energy_j`` is left out: it is a float sum whose last digit
    depends on the order the energy entries were read back in.
    """
    digest = hashlib.sha256()
    for entry in stats:
        fields = entry.to_dict()
        del fields["total_energy_j"]
        digest.update(json.dumps(fields, sort_keys=True).encode())
    return digest.hexdigest()


def timed_subprocess(code: str, *args: str) -> float:
    """Host seconds for a fresh interpreter to run ``code``."""
    started = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms,
    # which quantises a 0.3 s measurement
    subprocess.run([sys.executable, "-c", code, *args], check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    return time.perf_counter() - started


class TimedDB(ResultsDB):
    """A results database that times each ``record`` call."""

    def __init__(self, path: str, samples_ms: List[float]) -> None:
        super().__init__(path)
        self.samples_ms = samples_ms

    def record(self, *args, **kwargs) -> None:
        started = time.perf_counter()
        super().record(*args, **kwargs)
        self.samples_ms.append((time.perf_counter() - started) * 1e3)


class TimedRunner(ExperimentRunner):
    """An ExperimentRunner that times the operations it resolves.

    Every fresh point (trace lookup, machine build, simulation and the
    results-db record) is one operation, timed through the plain
    runner's own ``run``; memo hits are not operations.  It also keeps
    samples of the trace-build, machine-build and db-record times.  The
    engine's hot-loop counters are the runner's own ``engine_counters``.
    """

    def __init__(self, db_path: str, **options) -> None:
        self.timings: Dict[str, List[float]] = {
            "trace.build_s": [], "machine.build_ms": [],
            "db.record_ms": []}
        #: sampled after every fresh point when set (never while a
        #: profiler runs, which would charge it to the harness)
        self.yardstick: Optional[Yardstick] = None
        super().__init__(
            db=TimedDB(db_path, self.timings["db.record_ms"]), **options)
        self.start_pass(None)

    def start_pass(self, db_path: Optional[str]) -> None:
        """Forget finished points (not compiled traces) and open a
        fresh database, so the next pass simulates everything again."""
        if db_path is not None:
            self.results_db.close()
            self.results_db = TimedDB(db_path, self.timings["db.record_ms"])
        self._cache.clear()
        self.op_s: Dict[object, Tuple[float, int, int]] = {}
        self.results: List[RunStats] = []
        self.engine_counters = {}
        self.engine_run_s = 0.0

    def prepare(self, workloads: List[str]) -> None:
        """Build and compile the traces of ``workloads`` now."""
        for workload in workloads:
            self._kernel(workload)

    def run(self, workload: str, protocol: Protocol,
            consistency: Consistency, **overrides) -> RunStats:
        key = point_of(workload, protocol, consistency, **overrides)
        fresh = key not in self._cache
        mark = self.yardstick.mark() if self.yardstick else 0
        started = time.perf_counter()
        stats = super().run(workload, protocol, consistency, **overrides)
        if fresh:
            self.op_s[key] = (time.perf_counter() - started, mark, mark)
            self.results.append(stats)
            if self.yardstick:
                self.yardstick.sample(SAMPLE_GAP_S)
        return stats

    def _kernel(self, workload: str):
        fresh = workload not in self._kernels
        started = time.perf_counter()
        kernel = super()._kernel(workload)
        if fresh:
            self.timings["trace.build_s"].append(
                time.perf_counter() - started)
        return kernel

    def _simulate(self, workload: str, config) -> RunStats:
        builds: List[float] = []

        def timed_make_gpu(*args, **kwargs):
            begun = time.perf_counter()
            gpu = make_gpu(*args, **kwargs)
            builds.append(time.perf_counter() - begun)
            return gpu

        self._kernel(workload)
        simulating = time.perf_counter()
        # the runner module calls make_gpu by the name it imported;
        # swap that name for the duration of this one simulation
        runner_module.make_gpu = timed_make_gpu
        try:
            stats = super()._simulate(workload, config)
        finally:
            runner_module.make_gpu = make_gpu
        self.timings["machine.build_ms"].append(builds[0] * 1e3)
        self.engine_run_s += time.perf_counter() - simulating - builds[0]
        return stats

    def pass_result(self, wall_s: float,
                    profile: Optional[cProfile.Profile]) -> Pass:
        return Pass(
            wall_s=wall_s, op_s=dict(self.op_s),
            instructions=sum(stats.counter("instructions")
                             for stats in self.results),
            digest=stats_digest(self.results),
            profile=pstats.Stats(profile) if profile else None)

    def layer_counts(self) -> Dict[str, float]:
        """Simulated per-layer counts of the current pass, plus the
        median wrapped-call timings seen so far (call it after an
        untraced pass: the profiler inflates host times)."""
        counts = simulated_counts(self.results, self.engine_counters,
                                  self.engine_run_s)
        for name, samples in self.timings.items():
            counts[name] = statistics.median(samples)
        return counts


def simulated_counts(results: List[RunStats], engine: Dict[str, int],
                     engine_run_s: float) -> Dict[str, float]:
    """Per-layer counts summed over ``results``; ``engine`` holds the
    runner's ``engine_counters`` over the same simulations.

    Every value but ``engine.host_ns_per_event`` is a simulated outcome
    and must stay identical under any simulator-speed change.
    """
    total: Counter = Counter()
    for stats in results:
        total.update(stats.counters)
    engine = Counter(engine)
    instructions = total["instructions"]
    fired = engine["engine_events_fired"]
    return {
        "engine.events_fired": fired,
        "engine.cancel_ratio": engine["engine_cancelled"]
        / max(1, engine["engine_events_scheduled"]),
        "engine.host_ns_per_event": engine_run_s * 1e9 / max(1, fired),
        "sm.instructions": instructions,
        "sm.stall_cycles_per_instr": total["stall_cycles"]
        / max(1, instructions),
        "l1.hit_ratio": total["l1_hit"] / max(1, total["l1_access"]),
        "l1.renewals": total["l1_renewals"],
        "l1.expired_misses": total["l1_expired_miss"],
        "l2.hit_ratio": total["l2_hit"] / max(1, total["l2_access"]),
        "l2.mshr_stalls": total["l2_mshr_stall"],
        "noc.bytes_per_instr": total["noc_bytes"] / max(1, instructions),
        "noc.avg_latency_cycles": total["noc_latency_sum"]
        / max(1, total["noc_messages"]),
        "dram.reads": total["dram_reads"],
    }


class InProcess:
    """What the workloads share: they all simulate in this process."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        self.databases = 0
        self.counts: Dict[str, float] = {}
        self.yardstick = Yardstick()

    def _db_path(self) -> str:
        """A fresh results-database path, so every pass inserts."""
        self.databases += 1
        return str(self.work / f"{self.name}-{self.databases}.db")

    def _timed_pass(self, runner: TimedRunner, body,
                    traced: bool) -> Pass:
        profile = cProfile.Profile() if traced else None
        runner.yardstick = None if traced else self.yardstick
        started = time.perf_counter()
        if profile:
            profile.enable()
        body()
        if profile:
            profile.disable()
        wall = time.perf_counter() - started
        if not traced:
            self.counts = runner.layer_counts()
        return runner.pass_result(wall, profile)

    def layer_counts(self) -> Dict[str, float]:
        """The per-layer counts of the latest untraced pass."""
        return self.counts

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Report(InProcess):
    """``repro report`` at the CLI defaults, from a fresh runner.

    228 short simulations over all five protocols, the ablations and
    the 2/4/8-GPU points, each recorded into a results database; the
    only workload that computes the paper's headline ratios.  Besides
    one operation per point, a pass has the operation ``"rest"``: the
    memo hits and the assembly of the report.
    """

    PRESET, SCALE = "small", 0.5

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__("report", seed, work)
        self.runner: Optional[TimedRunner] = None

    def cold_start(self) -> float:
        return timed_subprocess(
            "import sys\n"
            "from repro.harness.report import build_report\n"
            "from repro.db.store import ResultsDB\n"
            "ResultsDB(sys.argv[1]).close()\n",
            self._db_path())

    def run_pass(self, traced: bool) -> Pass:
        self.runner = None      # let the previous pass's runner go first
        runner = TimedRunner(self._db_path(), preset=self.PRESET,
                             scale=self.SCALE, seed=self.seed)
        measuring = self.yardstick.spent_s
        mark = self.yardstick.mark()
        result = self._timed_pass(runner, lambda: build_report(runner),
                                  traced)
        runner.results_db.close()
        rest = (result.wall_s - sum(op[0] for op in result.op_s.values())
                - (self.yardstick.spent_s - measuring))
        result.op_s["rest"] = (rest, mark, self.yardstick.mark())
        self.runner = runner
        result.extra = self.paper_gaps(runner)
        return result

    @staticmethod
    def paper_gaps(runner: ExperimentRunner) -> Dict[str, float]:
        """Distance in percentage points between the reproduced
        headline claims and the paper's +38% / +26% / -20%."""
        rows = experiments.headline(runner).rows
        names = ("paper_gap_rc_pp", "paper_gap_sc_pp",
                 "paper_gap_traffic_pp")
        return {name: abs(paper - measured) * 100
                for name, (_, paper, measured) in zip(names, rows)}

    def check(self) -> Tuple[int, List[str]]:
        """Audit-replay and load-order checks on the coherent G-TSC-RC
        points, re-run with recording on; their RunStats must equal
        the report's."""
        failures = []
        config = self.runner.base_config(Protocol.GTSC, Consistency.RC)
        for workload in COHERENT_NAMES:
            obs = Observability(audit=ProtocolAuditLog())
            gpu = make_gpu(config, record_accesses=True, obs=obs)
            try:
                stats = gpu.run(self.runner._kernel(workload))
                replay_audit(obs.audit.records, lease=config.lease)
                check_gtsc_log(gpu.machine.log, gpu.machine.versions)
            except Exception as error:
                failures.append(f"{workload} G-TSC-RC: "
                                f"{type(error).__name__}: {error}")
                continue
            if stats != self.runner.run(workload, Protocol.GTSC,
                                        Consistency.RC):
                failures.append(f"{workload} G-TSC-RC: recorded run "
                                f"differs from the report's")
        return len(COHERENT_NAMES), failures


class SimSet(InProcess):
    """A fixed set of paper-preset simulations, re-run every pass.

    Traces are built once before timing, as a sweep over many
    configurations would, so a pass measures only the simulator.
    """

    PRESET, SCALE = "paper", 3.0

    def __init__(self, name: str, points: List[Tuple], seed: int,
                 work: Path) -> None:
        super().__init__(name, seed, work)
        self.points = [point_of(w, p, c) for w, p, c in points]
        self.workloads = sorted({point[0] for point in self.points})
        self.runner: Optional[TimedRunner] = None

    def cold_start(self) -> float:
        return timed_subprocess(
            "import sys\n"
            "from repro.gpu.gpu import make_gpu\n"
            "from repro.trace.compiled import compile_kernel\n"
            "from repro.workloads import build_workload\n"
            "for name in sys.argv[3:]:\n"
            "    compile_kernel(build_workload(name, scale=float("
            "sys.argv[1]), seed=int(sys.argv[2])))\n",
            str(self.SCALE), str(self.seed), *self.workloads)

    def run_pass(self, traced: bool) -> Pass:
        if self.runner is None:
            self.runner = TimedRunner(self._db_path(), preset=self.PRESET,
                                      scale=self.SCALE, seed=self.seed)
            self.runner.prepare(self.workloads)
        else:
            self.runner.start_pass(self._db_path())
        return self._timed_pass(
            self.runner, lambda: self.runner.prefetch(self.points), traced)

    def check(self) -> Tuple[int, List[str]]:
        # gpu.run raises SimulationHang when a warp never retires, which
        # fails the run; the sets need no further check
        return 0, []


#: G-TSC and TC under RC on the two most sharing-heavy coherent kernels
COHERENT_POINTS = [(w, p, Consistency.RC) for w in ("BFS", "DLP")
                   for p in (Protocol.GTSC, Protocol.TC)]
#: the non-coherent L1 and the no-L1 baseline on four private kernels
PRIVATE_POINTS = [(w, p, Consistency.RC) for w in ("CCP", "HS", "KM", "BP")
                  for p in (Protocol.NONCOHERENT, Protocol.DISABLED)]
