"""Process-pool execution of independent simulation points.

Every point of an experiment matrix or sweep is an independent,
deterministic simulation, so a batch of them is embarrassingly
parallel.  :class:`ParallelRunner` keeps the exact
:class:`~repro.harness.runner.ExperimentRunner` surface (``run`` /
``matrix`` / ``baseline`` / ``sweep`` compose unchanged) and overrides
only :meth:`prefetch`: the points a batch will need are simulated
concurrently in worker processes, after which the ordinary memoised
``run`` path finds them already in memory.

Determinism: workers return plain ``RunStats.to_dict()`` payloads and
the parent rebuilds them with :meth:`RunStats.from_dict`, so results
are bit-identical to a sequential run — the simulator itself is
seeded and single-threaded, and result ordering is fixed by the
point list, never by completion order.

``jobs`` defaults to one worker per available CPU core.  ``jobs=1``
(explicit, or the default on a single-core machine) short-circuits to
the in-process sequential path — no process pool, no pickling — which
keeps the class usable (and debuggable) where ``fork``/``spawn`` is
unavailable or unwanted and avoids paying spawn overhead where
parallelism cannot win.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Dict, Iterable, Optional, Tuple

from repro.gpu.gpu import make_gpu
from repro.harness.progress import RateEstimator
from repro.harness.runner import ExperimentRunner, Point
from repro.stats.collector import RunStats
from repro.workloads import build_workload


class SimulationJobError(RuntimeError):
    """A worker failure annotated with the point that caused it.

    A bare traceback out of a process pool says *what* broke but not
    *which of the 40 submitted points* broke it; this wrapper pins the
    workload, protocol/consistency, scale, seed and preset to the
    failure so a sweep can be re-narrowed to the offending point.

    Built from two positional arguments (message, context dict) only,
    so the default ``Exception`` pickling round-trips it intact across
    the ``fork``/``spawn`` process boundary.
    """

    def __init__(self, message: str, context: Dict) -> None:
        super().__init__(message, context)
        self.context = dict(context)

    def __str__(self) -> str:
        detail = ", ".join(f"{k}={v}" for k, v in
                           sorted(self.context.items()))
        return f"{self.args[0]} [{detail}]"


def _simulate_point(preset: str, scale: float, seed: int,
                    config_overrides: Tuple, point: Point) -> Dict:
    """Worker entry: simulate one point, return a picklable payload.

    Top-level (not a closure/method) so it pickles under both the
    ``fork`` and ``spawn`` start methods.  Reconstructs the config the
    same way :meth:`ExperimentRunner.base_config` does, so parent and
    worker agree on every parameter.

    Any failure is re-raised as :class:`SimulationJobError` carrying
    the point's identity, chained to the original exception.
    """
    from repro.config import GPUConfig

    workload, protocol, consistency, overrides = point
    try:
        factory = getattr(GPUConfig, preset)
        merged = dict(config_overrides)
        merged.update(overrides)
        config = factory(protocol=protocol, consistency=consistency,
                         **merged)
        kernel = build_workload(workload, scale=scale, seed=seed)
        with make_gpu(config, record_accesses=False) as gpu:
            stats = gpu.run(kernel)
        return stats.to_dict()
    except SimulationJobError:
        raise
    except Exception as error:
        context = {
            "workload": workload,
            "protocol": getattr(protocol, "value", protocol),
            "consistency": getattr(consistency, "value", consistency),
            "preset": preset,
            "scale": scale,
            "seed": seed,
        }
        if overrides:
            context["overrides"] = dict(overrides)
        raise SimulationJobError(
            f"{type(error).__name__}: {error}", context) from error


class ParallelRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that batches points over processes.

    Single points still run in-process; only :meth:`prefetch` (called
    by ``matrix``, ``sweep`` and the figure functions with their full
    point sets) fans out.  Points the memo or the results database
    already holds are filtered before any worker is spawned, so a warm
    database costs no processes at all, and a batch simulates each
    run_key at most once however many spellings of it the batch holds.
    """

    def __init__(self, jobs: Optional[int] = None, preset: str = "small",
                 scale: float = 0.5, seed: int = 2018,
                 progress: bool = False, db=None,
                 **config_overrides) -> None:
        cores = os.cpu_count() or 1
        if jobs is None:
            # default to the machine: one worker per core, which on a
            # single-core box means the in-process path with no pool,
            # no pickling, and no clamp warning
            jobs = cores
        elif jobs < 1:
            raise ValueError("jobs must be >= 1")
        elif jobs > cores:
            # oversubscription is a measured loss on this workload
            # (0.73x at jobs=4 on a 1-core box), not just a no-op
            warnings.warn(
                f"jobs={jobs} exceeds the {cores} available CPU "
                f"core(s); clamping to {cores}",
                RuntimeWarning, stacklevel=2)
            jobs = cores
        super().__init__(preset=preset, scale=scale, seed=seed,
                         progress=progress, db=db, **config_overrides)
        self.jobs = jobs

    # ------------------------------------------------------------------
    def _missing(self, points: Iterable[Point]) -> list:
        """The points of a batch that must be simulated, one per run_key.

        A point is skipped when its run_key is already resolved in
        memory, stored in the results database, or queued earlier in
        the batch: ``run`` later finds the result under that run_key,
        whatever the spelling.
        """
        missing = []
        queued = set()
        for point in points:
            if point in self._cache:
                continue
            workload, protocol, consistency, overrides = point
            config = self.base_config(protocol, consistency,
                                      **dict(overrides))
            digest = self._disk_key(workload, config)
            if digest in self._cache or digest in queued:
                continue
            stats = (self.results_db.lookup(digest)
                     if self.results_db is not None else None)
            if stats is not None:
                self._cache[point] = self._cache[digest] = stats
                self._record_run(digest, stats, point, config,
                                 source="runner-cache")
                continue
            queued.add(digest)
            missing.append(point)
        return missing

    def prefetch(self, points: Iterable[Point]) -> None:
        """Simulate the uncached points of a batch concurrently."""
        points = list(points)
        missing = self._missing(points)
        cached = len(points) - len(missing)
        if cached:
            self._heartbeat(f"{cached} of {len(points)} point(s) "
                            f"already cached")
        if not missing:
            return
        if self.jobs == 1 or len(missing) == 1:
            # the sequential base path, which also emits heartbeats
            super().prefetch(missing)
            return

        from concurrent.futures import ProcessPoolExecutor

        started = time.monotonic()
        total = len(missing)
        self._heartbeat(f"simulating {total} point(s) over "
                        f"{self.jobs} worker process(es)")
        overrides_key = tuple(sorted(self.config_overrides.items()))
        estimator = RateEstimator()
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = [
                pool.submit(_simulate_point, self.preset, self.scale,
                            self.seed, overrides_key, point)
                for point in missing
            ]
            # iterate in submission order: results land deterministically
            for index, (point, future) in enumerate(
                    zip(missing, futures), start=1):
                stats = RunStats.from_dict(future.result())
                self.simulations_run += 1
                workload, protocol, consistency, overrides = point
                config = self.base_config(protocol, consistency,
                                          **dict(overrides))
                digest = self._disk_key(workload, config)
                self._cache[point] = self._cache[digest] = stats
                # per-point wall time stays in the worker process; the
                # row still records which pool run produced it
                self._record_run(digest, stats, point, config,
                                 source="runner-pool")
                estimator.tick()
                self._heartbeat(
                    f"{index}/{total} {self._describe_point(point)} "
                    f"(cycles={stats.cycles}, "
                    f"{time.monotonic() - started:.1f}s elapsed"
                    f"{estimator.suffix(total - index)})")
