"""Top-level simulator: build a machine or a cluster, launch kernels,
collect stats."""

from __future__ import annotations

from typing import Optional

from repro.config import GPUConfig, Protocol
from repro.energy.model import EnergyModel, EnergyParams
from repro.gpu.machine import Machine
from repro.gpu.sm import SM
from repro.gpu.warp import Warp
from repro.mem.noc import Network
from repro.protocols.factory import build_protocol
from repro.sim.engine import Engine
from repro.stats.collector import RunStats, StatsCollector
from repro.trace.compiled import Kernel, compile_kernel
from repro.validate.versions import AccessLog, VersionStore


class SimulationHang(RuntimeError):
    """The event heap drained with warps still outstanding.

    Raised with a diagnostic dump of every stuck warp — if this fires,
    a protocol lost a message or a completion callback.
    """


class GPU:
    """The simulated system: one GPU, or a cluster of ``config.n_gpus``.

    Builds ``config.n_gpus`` machines (one for the paper's machine) on
    one event engine, one statistics collector, one version store and
    one access log.  Only a cluster (HALCONE-style, see
    :mod:`repro.multigpu`) adds the inter-GPU link (a second
    :class:`~repro.mem.noc.Network`, ``interlink``), the shared home
    directory and, under G-TSC, one timestamp domain for every bank,
    and connects each machine's route tables to the others; the
    controllers are the same on one GPU and in a cluster.  ``machine``
    is GPU 0, which holds the shared engine, statistics, access log
    and version store.

    Kernels run to completion; between kernels the L1s are flushed and
    logical timestamps reset while the L2 keeps its data (the paper's
    kernel boundary, Section V-D).  Use :func:`run_kernel` for the
    one-shot convenience path.  A caller that keeps only the RunStats
    builds the GPU in a ``with`` block: leaving it calls :meth:`close`,
    so reference counting frees the machine at once.
    """

    def __init__(self, config: GPUConfig,
                 record_accesses: bool = True,
                 energy_params: Optional[EnergyParams] = None,
                 obs=None) -> None:
        self.config = config
        self.obs = obs
        engine = Engine()
        stats = StatsCollector()
        # one switch for both records the checkers read
        versions = VersionStore(record_writes=record_accesses)
        log = AccessLog(enabled=record_accesses)
        self.interlink = None
        self.home = None
        # the cluster's shared G-TSC domain; a lone machine's comes
        # from build_protocol
        self.timestamp_domain = None
        if config.n_gpus > 1:
            from repro.core.timestamps import TimestampDomain
            from repro.multigpu import HomeDirectory

            self.interlink = Network(engine, stats,
                                     config.interlink_latency,
                                     config.interlink_bandwidth,
                                     family="interlink")
            self.home = HomeDirectory(config.home_ts_entries, stats)
            if config.protocol is Protocol.GTSC:
                # the home directory resets with the domain (registered
                # before the banks; the listeners touch disjoint state)
                domain = TimestampDomain(config.ts_max, config.lease,
                                         stats)
                domain.on_reset(self.home.reset)
                self.timestamp_domain = domain
        self.machines = [
            Machine(config, engine=engine, stats=stats, versions=versions,
                    log=log, timestamp_domain=self.timestamp_domain,
                    home=self.home, gpu_id=g)
            for g in range(config.n_gpus)
        ]
        if self.interlink is not None:
            for machine in self.machines:
                machine.connect(self.machines, self.interlink)
        self.machine = self.machines[0]
        if obs is not None:
            # before build_protocol: the controllers read machine.obs
            obs.attach(self)
        for machine in self.machines:
            build_protocol(machine)
        self.sms = [
            SM(sm_id, machine, machine.l1s[sm_id])
            for machine in self.machines
            for sm_id in range(config.num_sms)
        ]
        self._energy = EnergyModel(config, energy_params or EnergyParams())
        self._warp_uid_base = 0
        #: set by :meth:`close`; a closed GPU cannot run
        self.closed = False

    # -- kernel execution -------------------------------------------------------
    def run(self, kernel: Kernel,
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
        :class:`RunStats` per kernel, with per-kernel cycle, counter
        and latency-sum deltas.
        """
        engine = self.machine.engine
        stats = self.machine.stats
        results = []
        for kernel in kernels:
            start_cycle = engine.now
            start_latency = self._latency_sums()
            before = stats.snapshot()
            self._execute(kernel, max_events)
            self._kernel_boundary()
            after = stats.snapshot()
            cycles = engine.now - start_cycle
            delta = {name: after.get(name, 0) - before.get(name, 0)
                     for name in after
                     if after.get(name, 0) != before.get(name, 0)}
            delta["cycles"] = cycles
            for counter, total in self._latency_sums().items():
                delta[counter] = total - start_latency[counter]
            results.append(RunStats(
                config_desc=f"{kernel.name} on {self.config.describe()}",
                cycles=cycles,
                counters=delta,
                energy=self._energy.compute(delta, cycles),
            ))
        # deliver the last boundary's flush traffic (write-back
        # protocols emit PutM writebacks), as finish() does; every
        # earlier boundary's went out during the next kernel
        engine.run()
        return results

    def _execute(self, kernel: Kernel,
                 max_events: Optional[int]) -> None:
        if self.closed:
            raise RuntimeError("cannot run a kernel on a closed GPU")
        compile_kernel(kernel)
        if kernel.cta_size > self.config.max_warps_per_sm:
            raise ValueError(
                f"kernel {kernel.name!r}: cta_size {kernel.cta_size} "
                f"exceeds {self.config.max_warps_per_sm} warps/SM"
            )
        retired_before = sum(sm.retired for sm in self.sms)
        uid_base = self._warp_uid_base
        self._warp_uid_base += kernel.num_warps
        n_gpus = self.config.n_gpus
        num_sms = self.config.num_sms
        # whole CTAs land on one SM (barriers require it); CTAs go
        # round-robin across GPUs first, then across each GPU's SMs,
        # so consecutive CTAs land on different GPUs (on one GPU this
        # is plain cta % num_sms)
        for index, trace in enumerate(kernel.traces):
            cta_index = index // kernel.cta_size
            warp = Warp(uid=uid_base + index, trace=trace,
                        cta_id=uid_base + cta_index)
            gpu = cta_index % n_gpus
            local_sm = (cta_index // n_gpus) % num_sms
            self.sms[gpu * num_sms + local_sm].add_warp(warp)
        for sm in self.sms:
            sm.start()

        self.machine.engine.run(max_events=max_events)

        unfinished = kernel.num_warps - (
            sum(sm.retired for sm in self.sms) - retired_before)
        if unfinished > 0:
            self._raise_hang(kernel, unfinished)

    def _flush_l1s(self) -> None:
        for machine in self.machines:
            for l1 in machine.l1s:
                l1.flush()

    def _kernel_boundary(self) -> None:
        """Flush every L1 and reset logical time between kernels (§V-D)."""
        self._flush_l1s()
        domain = self.machine.timestamp_domain
        if domain is not None:
            domain.kernel_reset()
            for machine in self.machines:
                for l1 in machine.l1s:
                    # L1s are already flushed; adopt the new epoch eagerly
                    l1.epoch = domain.epoch

    def _raise_hang(self, kernel: Kernel, unfinished: int) -> None:
        stuck = []
        for sm in self.sms:
            unit = f"{sm.machine.unit_prefix}sm{sm.sm_id}"
            for warp in sm.active:
                stuck.append(
                    f"{unit} warp{warp.uid} pc={warp.pc} "
                    f"ldo={warp.outstanding_loads} "
                    f"sto={warp.outstanding_stores} "
                    f"pending={warp.pending_addrs}"
                )
            if sm.queue:
                stuck.append(f"{unit}: {len(sm.queue)} queued warps")
        raise SimulationHang(
            f"kernel {kernel.name!r}: {unfinished} warps never "
            f"finished at cycle {self.machine.engine.now}:\n"
            + "\n".join(stuck)
        )

    # -- wrap-up ------------------------------------------------------------------
    def _latency_sums(self) -> dict:
        """Cumulative NoC latency over every GPU, plus the interlink's
        on a cluster."""
        sums = {"noc_latency_sum": sum(machine.noc.total_latency
                                       for machine in self.machines)}
        if self.interlink is not None:
            sums["interlink_latency_sum"] = self.interlink.total_latency
        return sums

    def finish(self, name: str) -> RunStats:
        """Kernel boundary: flush L1s and snapshot the statistics."""
        cycles = self.machine.engine.now
        self._flush_l1s()
        # drain any flush-generated traffic (write-back protocols emit
        # PutM writebacks here) so the final memory state is complete;
        # the reported cycle count is the kernel completion time above
        self.machine.engine.run()
        stats = self.machine.stats
        stats.counters["cycles"] = cycles
        # assigned, not Counter.update (which would add to the totals)
        for counter, total in self._latency_sums().items():
            stats.counters[counter] = total
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

    # -- lifetime -------------------------------------------------------------
    def close(self) -> None:
        """Unlink the machine so that reference counting frees it.

        Some links are cyclic by design: each controller points at its
        machine, which lists it; each machine's route tables name the
        machine itself and, in a cluster, every other machine; the
        G-TSC banks and a cluster's home directory listen on a
        timestamp domain the banks point at; and an observability
        bundle's engine hook and gauges reach the machines, which
        point at the bundle.  Closing drops one side of each, so the
        whole machine goes as soon as the last outside reference to
        this GPU does, instead of waiting for the cyclic collector.  A
        new back-reference must be dropped here too
        (``tests/test_request_state.py`` checks that nothing is left).
        Read what is still needed (engine counters, the access log)
        first.  Idempotent; a closed GPU cannot run.
        """
        self.closed = True
        self.machine.engine.hook = None
        for machine in self.machines:
            machine.l1s = []
            machine.l2_banks = []
            machine.bank_routes = []
            machine.sm_routes = []
            machine.obs = None
            if machine.timestamp_domain is not None:
                machine.timestamp_domain.clear_listeners()

    def __enter__(self) -> "GPU":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: the name the CLI and the harness build a simulator through;
#: ``bench/workloads.py`` times each build by swapping the harness's
#: ``make_gpu``
make_gpu = GPU


def run_kernel(config: GPUConfig,
               kernel: Kernel,
               record_accesses: bool = True,
               max_events: Optional[int] = None) -> RunStats:
    """Build a GPU for ``config``, run ``kernel``, return its stats."""
    with make_gpu(config, record_accesses=record_accesses) as gpu:
        return gpu.run(kernel, max_events=max_events)
