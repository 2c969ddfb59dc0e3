"""Counters gathered during a simulation run.

Every figure in the paper's evaluation is computed from the counters
here: execution cycles (Fig. 12, 14, Table II), memory-stall cycles
(Fig. 13), NoC bytes by message class (Fig. 15), and the event counts
the energy model turns into joules (Fig. 16, 17).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

from repro.stats.histogram import Histogram, HistogramSet


class StatsCollector:
    """Mutable counter bag shared by all components of one simulation.

    Counters are plain named integers; components bump them with
    :meth:`add`.  Keeping a single flat namespace (rather than
    per-component objects) makes the harness side trivial: every
    experiment just reads the counters it needs.  Latency
    *distributions* go into :attr:`hist` (see
    :mod:`repro.stats.histogram`).
    """

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self.hist = HistogramSet()

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] += amount

    def get(self, name: str) -> int:
        """Read counter ``name`` (0 if never touched)."""
        return self.counters[name]

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters."""
        return dict(self.counters)


@dataclass
class RunStats:
    """Immutable summary of one finished simulation run.

    Produced by ``GPU.finish()``; consumed by the harness, the energy
    model, and the tests.
    """

    config_desc: str
    cycles: int
    counters: Dict[str, int] = field(default_factory=dict)
    energy: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    # sampled time-series from repro.obs.MetricsRegistry.to_dict();
    # empty (and omitted from to_dict) unless the run was built with
    # an Observability bundle, so default runs serialize byte-identical
    # to builds that predate the observability layer
    timeseries: Dict = field(default_factory=dict)

    @property
    def total_energy(self) -> float:
        """Sum of all per-component energies (joules)."""
        return sum(self.energy.values())

    def counter(self, name: str) -> int:
        """Read a raw counter (0 if absent)."""
        return self.counters.get(name, 0)

    @property
    def noc_bytes(self) -> int:
        return self.counter("noc_bytes")

    @property
    def stall_mem_cycles(self) -> int:
        return self.counter("stall_mem_cycles")

    @property
    def l1_hit_rate(self) -> float:
        accesses = self.counter("l1_access")
        return self.counter("l1_hit") / accesses if accesses else 0.0

    def histogram(self, name: str) -> Histogram:
        """A recorded latency histogram (KeyError if absent)."""
        return self.histograms[name]

    def speedup_over(self, baseline: "RunStats") -> float:
        """Performance of this run relative to ``baseline``.

        Defined as baseline cycles / our cycles, i.e. > 1 means faster,
        matching the normalized-performance bars of Figure 12.
        """
        if self.cycles == 0:
            raise ValueError("run has zero cycles")
        return baseline.cycles / self.cycles

    def to_dict(self) -> Dict:
        """A JSON-ready dump for downstream tooling and the wire.

        Each histogram entry keeps the human-facing summary fields
        (count/mean/p99/max) and adds the raw buckets so that
        :meth:`from_dict` restores the exact object.
        """
        data = {
            "config": self.config_desc,
            "cycles": self.cycles,
            "counters": dict(self.counters),
            "energy_j": dict(self.energy),
            "total_energy_j": self.total_energy,
            "histograms": {
                name: h.to_dict()
                for name, h in self.histograms.items()
            },
        }
        if self.timeseries:
            data["timeseries"] = self.timeseries
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RunStats":
        """Rebuild a run summary dumped by :meth:`to_dict`.

        The round trip is exact: ``RunStats.from_dict(s.to_dict()) == s``
        for any run, which is what lets a parallel worker's or a remote
        serve worker's payload stand in for an in-process simulation.
        """
        return cls(
            config_desc=data["config"],
            cycles=data["cycles"],
            counters=dict(data["counters"]),
            energy={k: float(v) for k, v in data["energy_j"].items()},
            histograms={
                name: Histogram.from_dict(name, entry)
                for name, entry in data["histograms"].items()
            },
            timeseries=data.get("timeseries", {}),
        )

    def summary(self) -> str:
        """Multi-line human-readable digest used by the examples."""
        lines = [
            f"config:            {self.config_desc}",
            f"cycles:            {self.cycles}",
            f"instructions:      {self.counter('instructions')}",
            f"L1 hit rate:       {self.l1_hit_rate:.3f}",
            f"memory stalls:     {self.stall_mem_cycles}",
            f"NoC bytes:         {self.noc_bytes}",
            f"DRAM reads:        {self.counter('dram_reads')}",
            f"total energy (J):  {self.total_energy:.6f}",
        ]
        return "\n".join(lines)
