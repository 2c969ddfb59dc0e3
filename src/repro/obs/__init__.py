"""Observability: structured tracing, live metrics, and audit logging.

Everything in this package is opt-in and zero-cost when absent: the
simulator's instrumentation points hold plain attribute references
that default to ``None``, so a run constructed without an
:class:`Observability` bundle executes the exact same instruction
stream — bit-identical statistics — as before this package existed.

The bundle has three independent members:

* :class:`~repro.obs.tracer.Tracer` — timestamped structured events
  (stall windows, renewals, NoC transfers), exported as
  Perfetto-loadable Chrome-trace JSON or compact JSONL;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters and gauges
  sampled on a cycle interval into a time-series (IPC, hit/renew mix,
  MSHR pressure), carried in ``RunStats.timeseries``;
* :class:`~repro.obs.audit.ProtocolAuditLog` — every coherence
  transition with its timestamps, replayable against the G-TSC
  invariants by :func:`~repro.obs.audit.replay_audit`.

Typical use::

    obs = Observability.full(interval=500)
    gpu = GPU(config, obs=obs)
    stats = gpu.run(kernel)
    obs.tracer.write_chrome("run.trace.json")
    replay_audit(obs.audit.records, lease=config.lease)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.audit import AuditRecord, ProtocolAuditLog, replay_audit
from repro.obs.metrics import DEFAULT_COUNTERS, MetricsRegistry
from repro.obs.prom import render_prometheus, split_snapshot
from repro.obs.schema import validate_chrome_trace
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.gpu import GPU

__all__ = [
    "AuditRecord",
    "DEFAULT_COUNTERS",
    "MetricsRegistry",
    "Observability",
    "ProtocolAuditLog",
    "Tracer",
    "render_prometheus",
    "replay_audit",
    "split_snapshot",
    "validate_chrome_trace",
]


class Observability:
    """The bundle a :class:`~repro.gpu.gpu.GPU` run can be built with.

    Any member may be ``None``; components check once at construction
    and cache the reference, so a disabled member costs nothing.
    """

    __slots__ = ("tracer", "metrics", "audit")

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 audit: Optional[ProtocolAuditLog] = None) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.audit = audit

    @classmethod
    def full(cls, interval: int = 1000,
             trace_engine: bool = False) -> "Observability":
        """All three members enabled (what ``repro trace`` uses)."""
        return cls(tracer=Tracer(trace_engine=trace_engine),
                   metrics=MetricsRegistry(interval=interval),
                   audit=ProtocolAuditLog())

    # ------------------------------------------------------------------
    # wiring (called by GPU.__init__)
    # ------------------------------------------------------------------
    def attach(self, gpu: "GPU") -> None:
        """Hook this bundle into a GPU under construction.

        Hands the tracer to every machine's NoC and DRAM partitions
        and to the interlink of a cluster, then binds the metrics
        registry, registers the default live gauges and installs the
        engine dispatch hook exactly once: every machine runs on the
        GPU's one engine and statistics collector.  The MSHR gauges
        sum over all machines and close over them because the L1/L2
        controllers are populated later by ``build_protocol``, which
        reads the bundle from ``machine.obs``.
        """
        tracer = self.tracer
        metrics = self.metrics
        machines = gpu.machines
        engine = gpu.machine.engine
        if tracer is not None:
            for machine in machines:
                machine.noc.trace = tracer
                for dram in machine.drams:
                    dram.trace = tracer
            if gpu.interlink is not None:
                gpu.interlink.trace = tracer
        if metrics is not None:
            metrics.bind(gpu.machine.stats, tracer=tracer)
            metrics.add_gauge("engine_pending", engine.pending)
            metrics.add_gauge(
                "l1_mshr_occupancy",
                lambda: sum(len(l1.mshr)
                            for m in machines for l1 in m.l1s))
            metrics.add_gauge(
                "l2_mshr_occupancy",
                lambda: sum(len(b.mshr)
                            for m in machines for b in m.l2_banks))
        engine.hook = self._engine_hook()
        for machine in machines:
            machine.obs = self

    def _engine_hook(self):
        """The per-dispatch callback installed on the engine, or None.

        Composed from the enabled members so the engine pays for
        exactly what was requested: metrics sampling, the raw event
        stream (``trace_engine``), both, or nothing.
        """
        metrics = self.metrics
        tracer = self.tracer
        raw = tracer if (tracer is not None and tracer.trace_engine) \
            else None
        if metrics is not None and raw is not None:
            def hook(time, callback):
                raw.engine_event(time, callback)
                metrics.on_cycle(time)
            return hook
        if metrics is not None:
            on_cycle = metrics.on_cycle
            return lambda time, callback: on_cycle(time)
        if raw is not None:
            return raw.engine_event
        return None
