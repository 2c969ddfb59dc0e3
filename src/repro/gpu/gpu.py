"""Top-level simulator: build a machine, launch a kernel, collect stats."""

from __future__ import annotations

from typing import Optional, Union

from repro.config import GPUConfig
from repro.energy.model import EnergyModel, EnergyParams
from repro.gpu.machine import Machine
from repro.gpu.sm import SM
from repro.gpu.warp import Warp
from repro.protocols.factory import build_protocol
from repro.stats.collector import RunStats
from repro.trace.compiled import CompiledKernel, compile_kernel
from repro.trace.instr import Kernel


class SimulationHang(RuntimeError):
    """The event heap drained with warps still outstanding.

    Raised with a diagnostic dump of every stuck warp — if this fires,
    a protocol lost a message or a completion callback.
    """


class GPU:
    """One simulated GPU.

    A ``GPU`` owns a fresh :class:`Machine` and its SMs; it can run one
    kernel (the paper's model: L1s are flushed and logical timestamps
    reset at every kernel boundary, Section V-D).  Use
    :func:`run_kernel` for the one-shot convenience path.
    """

    def __init__(self, config: GPUConfig,
                 record_accesses: bool = True,
                 energy_params: Optional[EnergyParams] = None,
                 obs=None) -> None:
        self.config = config
        self.obs = obs
        self.machine = Machine(config, record_accesses=record_accesses,
                               obs=obs)
        build_protocol(self.machine)
        self.sms = [
            SM(sm_id, self.machine, self.machine.l1s[sm_id])
            for sm_id in range(config.num_sms)
        ]
        self._energy = EnergyModel(config, energy_params or EnergyParams())
        self._warps_remaining = 0
        self._warp_uid_base = 0

    # -- kernel execution -------------------------------------------------------
    def run(self, kernel: Union[Kernel, CompiledKernel],
            max_events: Optional[int] = None) -> RunStats:
        """Execute ``kernel`` to completion and return its statistics."""
        self._execute(kernel, max_events)
        return self.finish(kernel.name)

    def run_sequence(self, kernels: list,
                     max_events: Optional[int] = None) -> list:
        """Execute several kernels back to back on this GPU.

        Models the paper's kernel-boundary behaviour (Section V-D):
        after each kernel the L1s are flushed and all logical
        timestamps reset, while the L2 keeps its data.  Returns one
        :class:`RunStats` per kernel, with per-kernel cycle and
        counter deltas.
        """
        results = []
        for kernel in kernels:
            start_cycle = self.machine.engine.now
            before = self.machine.stats.snapshot()
            self._execute(kernel, max_events)
            self._kernel_boundary()
            after = self.machine.stats.snapshot()
            cycles = self.machine.engine.now - start_cycle
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
        # the SMs only ever execute packed traces: an authored kernel
        # is compiled once here, a compiled one validated and reused
        kernel = compile_kernel(kernel)
        if kernel.cta_size > self.config.max_warps_per_sm:
            raise ValueError(
                f"kernel {kernel.name!r}: cta_size {kernel.cta_size} "
                f"exceeds {self.config.max_warps_per_sm} warps/SM"
            )
        self._warps_remaining = kernel.num_warps
        uid_base = self._warp_uid_base
        self._warp_uid_base += kernel.num_warps
        # whole CTAs land on one SM (barriers require it); CTAs are
        # distributed round-robin
        for index, trace in enumerate(kernel.traces):
            cta_index = index // kernel.cta_size
            warp = Warp(uid=uid_base + index, trace=trace,
                        cta_id=uid_base + cta_index)
            self.sms[cta_index % self.config.num_sms].add_warp(warp)
        for sm in self.sms:
            sm.on_warp_done = self._on_warp_done
            sm.start()

        self.machine.engine.run(max_events=max_events)

        if self._warps_remaining > 0:
            self._raise_hang(kernel)

    def _kernel_boundary(self) -> None:
        """Flush L1s and reset logical time between kernels (§V-D)."""
        for l1 in self.machine.l1s:
            l1.flush()
        domain = self.machine.timestamp_domain
        if domain is not None:
            domain.kernel_reset()
            for l1 in self.machine.l1s:
                # L1s are already flushed; adopt the new epoch eagerly
                l1.epoch = domain.epoch

    def _on_warp_done(self) -> None:
        self._warps_remaining -= 1

    def _raise_hang(self, kernel: CompiledKernel) -> None:
        stuck = []
        for sm in self.sms:
            for warp in sm.active:
                stuck.append(
                    f"sm{sm.sm_id} warp{warp.uid} pc={warp.pc} "
                    f"ldo={warp.outstanding_loads} "
                    f"sto={warp.outstanding_stores} "
                    f"pending={warp.pending_addrs}"
                )
            if sm.queue:
                stuck.append(f"sm{sm.sm_id}: {len(sm.queue)} queued warps")
        raise SimulationHang(
            f"kernel {kernel.name!r}: {self._warps_remaining} warps never "
            f"finished at cycle {self.machine.engine.now}:\n"
            + "\n".join(stuck)
        )

    # -- wrap-up ------------------------------------------------------------------
    def finish(self, name: str) -> RunStats:
        """Kernel boundary: flush L1s and snapshot the statistics."""
        cycles = self.machine.engine.now
        for l1 in self.machine.l1s:
            l1.flush()
        # drain any flush-generated traffic (write-back protocols emit
        # PutM writebacks here) so the final memory state is complete;
        # the reported cycle count is the kernel completion time above
        self.machine.engine.run()
        stats = self.machine.stats
        stats.counters["cycles"] = cycles
        stats.counters["noc_latency_sum"] = self.machine.noc.total_latency
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


def make_gpu(config: GPUConfig,
             record_accesses: bool = True,
             energy_params: Optional[EnergyParams] = None,
             obs=None):
    """The simulator for ``config``: a plain :class:`GPU`, or a
    :class:`~repro.multigpu.machine.MultiGpuGPU` cluster when
    ``config.n_gpus > 1``.

    Both expose the same ``run`` / ``run_sequence`` / ``finish``
    surface and a ``.machine`` carrying the engine and statistics.
    ``n_gpus=1`` takes this exact single-GPU constructor — the
    multigpu package is imported lazily and only for real clusters —
    so single-GPU results stay bit-identical.
    """
    if config.n_gpus > 1:
        from repro.multigpu.machine import MultiGpuGPU
        return MultiGpuGPU(config, record_accesses=record_accesses,
                           energy_params=energy_params, obs=obs)
    return GPU(config, record_accesses=record_accesses,
               energy_params=energy_params, obs=obs)


def run_kernel(config: GPUConfig,
               kernel: Union[Kernel, CompiledKernel],
               record_accesses: bool = True,
               max_events: Optional[int] = None) -> RunStats:
    """Build a GPU for ``config``, run ``kernel``, return its stats."""
    return make_gpu(config, record_accesses=record_accesses).run(
        kernel, max_events=max_events
    )
