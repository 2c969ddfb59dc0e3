"""The multi-GPU simulator: N machines, one engine, one interlink.

:class:`MultiGpuGPU` mirrors :class:`repro.gpu.gpu.GPU` — same
``run`` / ``run_sequence`` / ``finish`` surface, same RunStats — but
instantiates ``config.n_gpus`` full machines that share one event
engine, one statistics collector, one version store and one access
log (the validation and reporting layers need the global view), and
connects them through an :class:`~repro.multigpu.interlink.Interlink`.
DRAM partitions and memory images stay per-machine: the NUMA
interleaving makes their address sets disjoint.

Under G-TSC all banks on all GPUs share **one** timestamp domain, so
an overflow reset on any bank re-epochs the whole cluster — per-GPU
domains would break epoch comparisons on L1 fills served by remote
banks.  The shared :class:`~repro.multigpu.home.HomeDirectory`
(cleared on every reset) replaces the per-bank scalar ``mem_ts``.

CTAs are distributed round-robin across GPUs first, then across the
SMs within each GPU — consecutive CTAs land on different GPUs, which
is what makes the litmus workloads (one warp per CTA) genuinely
cross-GPU.  At ``n_gpus=1`` the expression reduces to the single-GPU
``cta % num_sms``, but that case never reaches this class: the
:func:`repro.gpu.gpu.make_gpu` factory returns a plain ``GPU``.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import GPUConfig, Protocol
from repro.core.timestamps import TimestampDomain
from repro.energy.model import EnergyModel, EnergyParams
from repro.gpu.machine import Machine
from repro.gpu.sm import SM
from repro.gpu.warp import Warp
from repro.multigpu.home import HomeDirectory
from repro.multigpu.interlink import Interlink
from repro.protocols.factory import build_protocol
from repro.sim.engine import Engine
from repro.stats.collector import RunStats, StatsCollector
from repro.trace.compiled import CompiledKernel, compile_kernel
from repro.trace.instr import Kernel
from repro.validate.versions import AccessLog, VersionStore


class MultiGpuGPU:
    """``config.n_gpus`` machines behind the single-GPU run surface."""

    def __init__(self, config: GPUConfig,
                 record_accesses: bool = True,
                 energy_params: Optional[EnergyParams] = None,
                 obs=None) -> None:
        if config.n_gpus < 2:
            raise ValueError("MultiGpuGPU needs n_gpus >= 2; "
                             "use repro.gpu.gpu.make_gpu")
        self.config = config
        self.obs = obs
        self.n_gpus = config.n_gpus
        engine = Engine()
        stats = StatsCollector()
        versions = VersionStore()
        log = AccessLog(enabled=record_accesses)
        self.interlink = Interlink(engine, stats,
                                   config.interlink_latency,
                                   config.interlink_bandwidth)
        self.gpu_ports = [("gpu", g) for g in range(config.n_gpus)]
        self.home = HomeDirectory(config.home_ts_entries, stats)
        # one timestamp domain for the whole cluster; the home
        # directory resets with it (before the banks are built, so its
        # listener fires first — the order is immaterial, the
        # listeners touch disjoint state)
        self.timestamp_domain: Optional[TimestampDomain] = None
        if config.protocol is Protocol.GTSC:
            domain = TimestampDomain(config.ts_max, config.lease, stats)
            domain.on_reset(self.home.reset)
            self.timestamp_domain = domain
        self.machines = [
            Machine(config, record_accesses=record_accesses,
                    engine=engine, stats=stats, versions=versions,
                    log=log, gpu_id=g, cluster=self)
            for g in range(config.n_gpus)
        ]
        if obs is not None:
            # one attach for the whole cluster: per-machine tracers,
            # but the metrics registry and engine hook exactly once
            obs.attach_cluster(self)
        for machine in self.machines:
            build_protocol(machine)
        self.sms = [
            SM(sm_id, machine, machine.l1s[sm_id])
            for machine in self.machines
            for sm_id in range(config.num_sms)
        ]
        self._energy = EnergyModel(config, energy_params or EnergyParams())
        self._warps_remaining = 0
        self._warp_uid_base = 0

    @property
    def machine(self) -> Machine:
        """GPU 0 — carries the shared engine/stats/log/versions, so
        single-GPU call sites (``gpu.machine.engine`` …) work as-is."""
        return self.machines[0]

    # -- kernel execution ---------------------------------------------------
    def run(self, kernel: Union[Kernel, CompiledKernel],
            max_events: Optional[int] = None) -> RunStats:
        """Execute ``kernel`` to completion and return its statistics."""
        self._execute(kernel, max_events)
        return self.finish(kernel.name)

    def run_sequence(self, kernels: list,
                     max_events: Optional[int] = None) -> list:
        """Execute several kernels back to back (see ``GPU``)."""
        results = []
        machine = self.machines[0]
        for kernel in kernels:
            start_cycle = machine.engine.now
            before = machine.stats.snapshot()
            self._execute(kernel, max_events)
            self._kernel_boundary()
            after = machine.stats.snapshot()
            cycles = machine.engine.now - start_cycle
            delta = {name: after.get(name, 0) - before.get(name, 0)
                     for name in after
                     if after.get(name, 0) != before.get(name, 0)}
            delta["cycles"] = cycles
            results.append(RunStats(
                config_desc=f"{kernel.name} on {self.config.describe()}",
                cycles=cycles,
                counters=delta,
                energy=self._energy.compute(delta, cycles),
            ))
        return results

    def _execute(self, kernel: Union[Kernel, CompiledKernel],
                 max_events: Optional[int]) -> None:
        kernel = compile_kernel(kernel)
        if kernel.cta_size > self.config.max_warps_per_sm:
            raise ValueError(
                f"kernel {kernel.name!r}: cta_size {kernel.cta_size} "
                f"exceeds {self.config.max_warps_per_sm} warps/SM"
            )
        self._warps_remaining = kernel.num_warps
        uid_base = self._warp_uid_base
        self._warp_uid_base += kernel.num_warps
        n_gpus = self.n_gpus
        num_sms = self.config.num_sms
        # whole CTAs land on one SM (barriers require it); CTAs go
        # round-robin across GPUs first, then across each GPU's SMs
        for index, trace in enumerate(kernel.traces):
            cta_index = index // kernel.cta_size
            warp = Warp(uid=uid_base + index, trace=trace,
                        cta_id=uid_base + cta_index)
            gpu = cta_index % n_gpus
            local_sm = (cta_index // n_gpus) % num_sms
            self.sms[gpu * num_sms + local_sm].add_warp(warp)
        for sm in self.sms:
            sm.on_warp_done = self._on_warp_done
            sm.start()

        self.machines[0].engine.run(max_events=max_events)

        if self._warps_remaining > 0:
            self._raise_hang(kernel)

    def _kernel_boundary(self) -> None:
        """Flush every L1 and reset cluster logical time (§V-D)."""
        for machine in self.machines:
            for l1 in machine.l1s:
                l1.flush()
        domain = self.timestamp_domain
        if domain is not None:
            domain.kernel_reset()
            for machine in self.machines:
                for l1 in machine.l1s:
                    l1.epoch = domain.epoch

    def _on_warp_done(self) -> None:
        self._warps_remaining -= 1

    def _raise_hang(self, kernel: CompiledKernel) -> None:
        from repro.gpu.gpu import SimulationHang

        stuck = []
        num_sms = self.config.num_sms
        for uid, sm in enumerate(self.sms):
            gpu = uid // num_sms
            for warp in sm.active:
                stuck.append(
                    f"g{gpu}:sm{sm.sm_id} warp{warp.uid} pc={warp.pc} "
                    f"ldo={warp.outstanding_loads} "
                    f"sto={warp.outstanding_stores} "
                    f"pending={warp.pending_addrs}"
                )
            if sm.queue:
                stuck.append(f"g{gpu}:sm{sm.sm_id}: "
                             f"{len(sm.queue)} queued warps")
        raise SimulationHang(
            f"kernel {kernel.name!r}: {self._warps_remaining} warps never "
            f"finished at cycle {self.machines[0].engine.now}:\n"
            + "\n".join(stuck)
        )

    # -- wrap-up ------------------------------------------------------------
    def finish(self, name: str) -> RunStats:
        """Kernel boundary: flush L1s and snapshot the statistics."""
        machine0 = self.machines[0]
        cycles = machine0.engine.now
        for machine in self.machines:
            for l1 in machine.l1s:
                l1.flush()
        machine0.engine.run()
        stats = machine0.stats
        stats.counters["cycles"] = cycles
        stats.counters["noc_latency_sum"] = sum(
            machine.noc.total_latency for machine in self.machines)
        stats.counters["interlink_latency_sum"] = \
            self.interlink.total_latency
        counters = stats.snapshot()
        energy = self._energy.compute(counters, cycles)
        timeseries = {}
        if self.obs is not None and self.obs.metrics is not None:
            self.obs.metrics.finalize(cycles)
            timeseries = self.obs.metrics.to_dict()
        return RunStats(
            config_desc=f"{name} on {self.config.describe()}",
            cycles=cycles,
            counters=counters,
            energy=energy,
            histograms={name: stats.hist.get(name)
                        for name in stats.hist.names()},
            timeseries=timeseries,
        )
