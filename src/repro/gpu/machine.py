"""The machine: every shared hardware structure wired together.

A :class:`Machine` owns the engine, the statistics, the NoC, the DRAM
partitions, and — once :func:`repro.protocols.build_protocol` has run —
the per-SM L1 controllers and per-bank L2 controllers.  It also routes
messages: requests go to the home bank of their line address, replies
to the requesting SM.
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
    from repro.obs import Observability
    from repro.protocols.base import L1ControllerBase, L2BankBase, Message


class Machine:
    """Shared hardware context for one simulation."""

    def __init__(self, config: GPUConfig,
                 record_accesses: bool = True,
                 obs: Optional["Observability"] = None,
                 *,
                 engine=None, stats=None, versions=None, log=None,
                 gpu_id: int = 0, cluster=None) -> None:
        self.config = config
        # engine/stats/versions/log may be injected so that N machines
        # in a multi-GPU cluster share one event timeline and one
        # statistics namespace (repro.multigpu); single-GPU callers
        # never pass them and get private instances as before
        self.engine = engine if engine is not None else Engine()
        self.stats = stats if stats is not None else StatsCollector()
        self.versions = versions if versions is not None else VersionStore()
        self.log = log if log is not None else AccessLog(
            enabled=record_accesses)
        # multi-GPU identity: cluster is None for a standalone machine;
        # when set, controllers address SMs by the global uid
        # ``sm_uid_base + local_sm`` and route home misses off-GPU
        self.cluster = cluster
        self.gpu_id = gpu_id
        self.sm_uid_base = gpu_id * config.num_sms
        # audit-unit prefix: empty for single-GPU runs (bit-identity
        # with pre-multigpu logs), "g<i>:" inside a cluster
        self.unit_prefix = f"g{gpu_id}:" if cluster is not None else ""
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
        self.timestamp_domain: Optional["TimestampDomain"] = None
        # per-class on-wire message sizes: every concrete message's
        # size depends only on the config, so routing computes it once
        # per class instead of twice per message
        self._msg_sizes: Dict[type, int] = {}
        # endpoint tuples, preallocated: they key the NoC's port dicts
        # and every message send needs a src and dst pair
        self._sm_ports = [("sm", i) for i in range(config.num_sms)]
        self._bank_ports = [("l2", j) for j in range(config.num_l2_banks)]
        # observability bundle (None by default: zero-cost).  Attached
        # last so the hooks see the fully built NoC/DRAM models; the
        # controllers read machine.obs at their own construction.
        self.obs = obs
        if obs is not None:
            obs.attach(self)

    # -- message routing -------------------------------------------------------
    def _size_of(self, msg: "Message") -> int:
        cls = type(msg)
        size = self._msg_sizes.get(cls)
        if size is None:
            size = msg.size(self.config)
            if cls.uniform_size:
                self._msg_sizes[cls] = size
        return size

    def send_to_bank(self, sm_id: int, msg: "Message") -> None:
        """Route a request from SM ``sm_id`` to the line's home bank."""
        bank_id = msg.addr % self.config.num_l2_banks  # config.bank_of
        size = self._msg_sizes.get(type(msg))
        if size is None:
            size = self._size_of(msg)
        self.noc.send(self._sm_ports[sm_id], self._bank_ports[bank_id],
                      size, msg.kind, self.l2_banks[bank_id].receive, msg)

    def send_to_sm(self, bank_id: int, sm_id: int, msg: "Message") -> None:
        """Route a response from bank ``bank_id`` back to an SM."""
        size = self._msg_sizes.get(type(msg))
        if size is None:
            size = self._size_of(msg)
        self.noc.send(self._bank_ports[bank_id], self._sm_ports[sm_id],
                      size, msg.kind, self.l1s[sm_id].receive, msg)
