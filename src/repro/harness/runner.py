"""Shared machinery for running experiment sweeps.

An :class:`ExperimentRunner` owns the machine preset, workload scale
and seed, and memoises finished runs, so experiments that share
baselines (every figure normalises against the no-L1 BL run) reuse
them instead of re-simulating.  The memo is keyed on the run_key (see
:func:`repro.harness.cache.run_key`): spellings that resolve to one
:class:`~repro.config.GPUConfig` — ``visibility=DELAY`` and no override
at all, say — share one simulation.

Behind the in-memory memo sits the results database (``db=...``, see
:mod:`repro.db.store`): every point the runner resolves is recorded
there, and a point whose run_key already has a row is read back instead
of simulated, across processes and sessions.  A process-pool batch path
(:class:`repro.harness.parallel.ParallelRunner`) overrides
:meth:`prefetch` to simulate independent points concurrently.
"""

from __future__ import annotations

import sys
import time
import warnings
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import make_gpu
from repro.harness.cache import _canonical, run_key
from repro.harness.progress import RateEstimator
from repro.stats.collector import RunStats
from repro.trace.compiled import Kernel
from repro.workloads import build_workload

# one simulation point: (workload, protocol, consistency, overrides)
Point = Tuple[str, Protocol, Consistency, Tuple]


def point_of(workload: str, protocol: Protocol,
             consistency: Consistency, **overrides) -> Point:
    """Normalise one simulation point into a hashable key."""
    return (workload, protocol, consistency,
            tuple(sorted(overrides.items())))


class ExperimentRunner:
    """Runs (workload x configuration) points with memoisation."""

    def __init__(self, preset: str = "small", scale: float = 0.5,
                 seed: int = 2018, progress: bool = False, db=None,
                 **config_overrides) -> None:
        if preset not in ("small", "paper", "tiny"):
            raise ValueError(f"unknown preset {preset!r}")
        self.preset = preset
        self.scale = scale
        self.seed = seed
        self.config_overrides = dict(config_overrides)
        # finished runs under both the Point that asked (its spelling)
        # and the run_key it resolved to; clear() forgets both
        self._cache: Dict[Union[Point, str], RunStats] = {}
        # results database: a ResultsDB handle or a path to open one.
        # It answers points the memo has not seen, and every point this
        # runner resolves is upserted with full spec + provenance.
        if isinstance(db, str):
            from repro.db.store import ResultsDB
            db = ResultsDB(db)
        self.results_db = db
        # compiled workload traces: generated once, shared by every
        # config that runs the same workload at this runner's scale
        # and seed
        self._kernels: Dict[str, Kernel] = {}
        #: actual simulations performed (memo and db hits don't count)
        self.simulations_run = 0
        #: engine hot-loop counters summed over fresh simulations
        #: (engine_* names; cached points contribute nothing)
        self.engine_counters: Dict[str, int] = {}
        #: emit live heartbeat lines to stderr during batch prefetches
        self.progress = progress

    def _heartbeat(self, message: str) -> None:
        """One live progress line (stderr, so stdout stays parseable)."""
        if self.progress:
            print(f"[repro] {message}", file=sys.stderr, flush=True)

    @staticmethod
    def _describe_point(point: Point) -> str:
        workload, protocol, consistency, overrides = point
        text = f"{workload} {protocol.value}-{consistency.value}"
        if overrides:
            text += " " + ",".join(f"{k}={v}" for k, v in overrides)
        return text

    # ------------------------------------------------------------------
    def base_config(self, protocol: Protocol, consistency: Consistency,
                    **overrides) -> GPUConfig:
        """The runner's machine with one protocol/consistency choice."""
        factory = getattr(GPUConfig, self.preset)
        merged = dict(self.config_overrides)
        merged.update(overrides)
        return factory(protocol=protocol, consistency=consistency,
                       **merged)

    def _disk_key(self, workload: str, config: GPUConfig) -> str:
        return run_key(config, workload, self.scale, self.seed)

    def _kernel(self, workload: str) -> Kernel:
        """The compiled trace for ``workload``, built at most once."""
        kernel = self._kernels.get(workload)
        if kernel is None:
            kernel = build_workload(workload, scale=self.scale,
                                    seed=self.seed)
            self._kernels[workload] = kernel
        return kernel

    def _simulate(self, workload: str, config: GPUConfig) -> RunStats:
        kernel = self._kernel(workload)
        self.simulations_run += 1
        gpu = make_gpu(config, record_accesses=False)
        stats = gpu.run(kernel)
        totals = self.engine_counters
        for name, value in gpu.machine.engine.counters().items():
            totals[name] = totals.get(name, 0) + value
        return stats

    def run(self, workload: str, protocol: Protocol,
            consistency: Consistency, **overrides) -> RunStats:
        """Simulate one point, memoised on its run_key.

        Spellings that resolve to one :class:`GPUConfig` share one
        simulation.  A point already asked for in this spelling is
        returned at once.  Otherwise the config and its run_key are
        resolved, and the first of these supplies the result: a run
        this process finished under that run_key, the results
        database, the engine.
        """
        key = point_of(workload, protocol, consistency, **overrides)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        config = self.base_config(protocol, consistency, **overrides)
        digest = self._disk_key(workload, config)
        wall_time = None
        source = "runner-cache"
        stats = self._cache.get(digest)
        if stats is None and self.results_db is not None:
            stats = self.results_db.lookup(digest)
        if stats is None:
            started = time.perf_counter()
            stats = self._simulate(workload, config)
            wall_time = time.perf_counter() - started
            source = "runner"
        self._cache[key] = self._cache[digest] = stats
        self._record_run(digest, stats, key, config,
                         wall_time_s=wall_time, source=source)
        return stats

    # ------------------------------------------------------------------
    # results database
    # ------------------------------------------------------------------
    def point_spec(self, point: Point) -> Dict:
        """The canonical request spec one point denormalises to.

        Matches the serve-protocol spec shape
        (:func:`repro.serve.schema.make_spec`), so a row written by a
        runner and a row written by a serve worker for the same run
        key carry comparable specs.
        """
        workload, protocol, consistency, overrides = point
        merged = dict(self.config_overrides)
        merged.update(dict(overrides))
        return {
            "workload": workload,
            "protocol": protocol.value,
            "consistency": consistency.value,
            "preset": self.preset,
            "scale": float(self.scale),
            "seed": self.seed,
            "overrides": {k: _canonical(merged[k])
                          for k in sorted(merged)},
        }

    def _record_run(self, digest: str, stats: RunStats, point: Point,
                    config: GPUConfig,
                    wall_time_s: Optional[float] = None,
                    source: str = "runner") -> None:
        """Upsert one resolved point into the results DB (if any).

        Database trouble (read-only disk, concurrent schema upgrade)
        warns and continues: persistence of provenance must never
        fail the experiment that produced the result.
        """
        if self.results_db is None:
            return
        try:
            self.results_db.record(
                digest, stats, spec=self.point_spec(point),
                config=config, source=source,
                wall_time_s=wall_time_s)
        except Exception as error:
            warnings.warn(
                f"results-db record failed for {digest[:12]}…: "
                f"{type(error).__name__}: {error}",
                RuntimeWarning, stacklevel=2)

    def prefetch(self, points: Iterable[Point]) -> None:
        """Warm the memo for a batch of points.

        The base implementation simply runs them sequentially; the
        parallel runner overrides this to fan the *missing* points out
        over a process pool.  Callers that know their full set of
        points up front (matrix, sweep, figure functions) route it
        through here so that one runner swap parallelises everything.
        """
        points = list(points)
        total = len(points)
        started = time.monotonic()
        estimator = RateEstimator()
        for index, point in enumerate(points, start=1):
            workload, protocol, consistency, overrides = point
            before = self.simulations_run
            self.run(workload, protocol, consistency, **dict(overrides))
            tag = "ran" if self.simulations_run > before else "cached"
            estimator.tick()
            self._heartbeat(
                f"{index}/{total} {self._describe_point(point)} "
                f"({tag}, {time.monotonic() - started:.1f}s elapsed"
                f"{estimator.suffix(total - index)})")

    # -- the runs every figure needs -------------------------------------------
    def baseline(self, workload: str) -> RunStats:
        """The no-L1 coherent baseline (BL) all figures normalise to.

        BL turns the L1 off, so the consistency model reduces to the
        issue rules; the paper runs it once per benchmark.  RC issue
        rules are used (matching TC-Weak's baseline in the original TC
        work).
        """
        return self.run(workload, Protocol.DISABLED, Consistency.RC)

    def matrix(self, workload: str) -> Dict[str, RunStats]:
        """The four protocol/consistency bars of Figures 12-16."""
        self.prefetch(self.matrix_points([workload]))
        return {
            "TC-SC": self.run(workload, Protocol.TC, Consistency.SC),
            "TC-RC": self.run(workload, Protocol.TC, Consistency.RC),
            "G-TSC-SC": self.run(workload, Protocol.GTSC, Consistency.SC),
            "G-TSC-RC": self.run(workload, Protocol.GTSC, Consistency.RC),
        }

    @staticmethod
    def matrix_points(workloads: Iterable[str],
                      baseline: bool = False) -> list:
        """The matrix points (optionally + baseline) for workloads."""
        points = []
        for workload in workloads:
            if baseline:
                points.append(point_of(workload, Protocol.DISABLED,
                                       Consistency.RC))
            for protocol in (Protocol.TC, Protocol.GTSC):
                for consistency in (Consistency.SC, Consistency.RC):
                    points.append(point_of(workload, protocol,
                                           consistency))
        return points

    def with_l1(self, workload: str) -> RunStats:
        """The non-coherent "Baseline W/L1" bar (second group only)."""
        return self.run(workload, Protocol.NONCOHERENT, Consistency.RC)
