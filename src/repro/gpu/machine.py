"""The machine: one GPU's shared hardware structures wired together.

A :class:`Machine` holds the NoC, the DRAM partitions, the memory
image and — once :func:`repro.protocols.build_protocol` has run — the
per-SM L1 controllers and per-bank L2 controllers, together with the
engine, statistics, version store and access log it runs on.
:class:`repro.gpu.gpu.GPU` builds one machine per GPU and injects one
shared engine/statistics/log set into all of them; a lone machine
built directly (as unit tests do) makes its own.  Routing is done by
the controllers themselves (``L1ControllerBase._send`` and
``L2BankBase._reply``) through the machine's route tables (see
:meth:`Machine.connect`): requests go to the home bank of their line
address, replies to the requesting SM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.config import GPUConfig, NocTopology
from repro.mem.dram import DRAMPartition
from repro.mem.noc import MeshNetwork, Network
from repro.sim.engine import Engine
from repro.stats.collector import StatsCollector
from repro.validate.versions import AccessLog, VersionStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.timestamps import TimestampDomain
    from repro.multigpu.home import HomeDirectory
    from repro.protocols.base import L1ControllerBase, L2BankBase, Message


class Machine:
    """One GPU's hardware context within a simulation."""

    def __init__(self, config: GPUConfig,
                 record_accesses: bool = True,
                 *,
                 engine=None, stats=None, versions=None, log=None,
                 timestamp_domain: Optional["TimestampDomain"] = None,
                 home: Optional["HomeDirectory"] = None,
                 gpu_id: int = 0) -> None:
        self.config = config
        # the GPU injects engine/stats/versions/log so that all of its
        # machines share one event timeline and one statistics
        # namespace; a machine built on its own gets private instances
        self.engine = engine if engine is not None else Engine()
        self.stats = stats if stats is not None else StatsCollector()
        self.versions = versions if versions is not None else VersionStore(
            record_writes=record_accesses)
        self.log = log if log is not None else AccessLog(
            enabled=record_accesses)
        # the logical time the G-TSC banks stamp leases in: a cluster
        # injects one domain for every GPU, build_protocol gives a
        # lone G-TSC machine its own; None under other protocols
        self.timestamp_domain = timestamp_domain
        # a cluster's shared mem_ts directory, which its G-TSC banks
        # fold evictions into; None on one GPU, whose banks each keep
        # a scalar mem_ts
        self.home = home
        self.gpu_id = gpu_id
        # audit-unit prefix: empty for single-GPU runs (bit-identity
        # with pre-multigpu logs), "g<i>:" inside a cluster
        self.unit_prefix = f"g{gpu_id}:" if config.n_gpus > 1 else ""
        # line address -> version currently resident in DRAM
        self.memory_image: Dict[int, int] = {}
        if config.noc_topology is NocTopology.MESH:
            self.noc = MeshNetwork(
                self.engine, self.stats, config.mesh_hop_latency,
                config.mesh_link_bandwidth, config.num_sms,
                config.num_l2_banks)
        else:
            self.noc = Network(self.engine, self.stats,
                               config.noc_latency,
                               config.noc_port_bandwidth)
        self.drams: List[DRAMPartition] = [
            DRAMPartition(self.engine, self.stats, config.dram_latency,
                          config.dram_bandwidth, config.line_size,
                          name=f"dram{b}")
            for b in range(config.num_l2_banks)
        ]
        # populated by repro.protocols.build_protocol
        self.l1s: List["L1ControllerBase"] = []
        self.l2_banks: List["L2BankBase"] = []
        # per-class on-wire message sizes: every concrete message's
        # size depends only on the config, so routing computes it once
        # per class instead of twice per message
        self._msg_sizes: Dict[type, int] = {}
        # this GPU's endpoint on the inter-GPU link
        self.link_port = ("gpu", gpu_id)
        # route tables (see connect): a lone GPU's every home is its
        # own; GPU.__init__ connects the machines of a cluster
        self.bank_routes: List[tuple] = []
        self.sm_routes: List[tuple] = []
        if config.n_gpus == 1:
            self.connect([self])
        # observability bundle: None (zero-cost) unless
        # Observability.attach sets it; the controllers read it at
        # their own construction
        self.obs = None

    # -- routing -----------------------------------------------------------------
    def connect(self, machines: List["Machine"],
                link: Optional[Network] = None) -> None:
        """Build the route tables to ``machines``, every GPU's machine
        in ``gpu_id`` order (this one included).

        An entry is ``(network, via, endpoint, machine, index)``: the
        message crosses ``network`` to ``endpoint`` and is delivered to
        ``machine``'s controller ``index``, looked up at send time.
        ``via`` picks the sender's injection port: 0 for its own NoC
        port, 1 for its GPU's port on ``link``.  A controller on a
        remote GPU is reached over ``link`` alone, whose latency covers
        the whole off-die path, not over the NoC as well.

        ``bank_routes`` has one entry per line address modulo
        ``num_l2_banks * n_gpus``, filled from ``config.bank_of`` and
        ``config.home_gpu_of``; ``sm_routes`` one per global SM uid
        ``gpu_id * num_sms + sm_id``.
        """
        config = self.config

        def route(target, endpoint, index):
            if target is self:
                return (self.noc, 0, endpoint, target, index)
            return (link, 1, target.link_port, target, index)

        self.bank_routes = []
        for line in range(config.num_l2_banks * config.n_gpus):
            bank = config.bank_of(line)
            self.bank_routes.append(route(
                machines[config.home_gpu_of(line)], ("l2", bank), bank))
        self.sm_routes = [
            route(target, ("sm", sm_id), sm_id)
            for target in machines for sm_id in range(config.num_sms)]

    # -- message sizes -----------------------------------------------------------
    def _size_of(self, msg: "Message") -> int:
        cls = type(msg)
        size = self._msg_sizes.get(cls)
        if size is None:
            size = msg.size(self.config)
            if cls.uniform_size:
                self._msg_sizes[cls] = size
        return size
