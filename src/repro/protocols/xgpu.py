"""Cross-GPU variants of every protocol: routing mixins over the
single-GPU state machines.

Addresses are NUMA-interleaved (``GPUConfig.home_gpu_of``): every line
has exactly one home L2 bank system-wide, so no protocol needs a new
state machine — an L1 miss either goes to a local bank over the on-die
NoC (as before) or crosses the :class:`~repro.multigpu.interlink.
Interlink` to the home GPU's bank.  The one genuinely new piece of
protocol state is G-TSC's eviction fold: a per-bank scalar ``mem_ts``
is only safe when the bank is the sole order point for its addresses,
which still holds here, but the cross-GPU variant routes the fold
through the shared :class:`~repro.multigpu.home.HomeDirectory` so the
audit replayer can check lease monotonicity globally and so the fold
is per-address (HALCONE/Tardis-directory style) rather than
bank-scalar.

SM identity: inside a cluster every request carries the **global** SM
uid ``gpu_id * num_sms + local_sm`` in ``msg.sm`` — both local and
remote requests, because L2-side state (MESI sharer sets, MSHR
waiters) would otherwise mix local ids of different GPUs.  The
rewrite is an absolute assignment, so the L2's MSHR-full retry path
(which re-enters ``receive`` with the same message object) is safe.

All mixins declare empty ``__slots__``: the controller bases are
slotted, and per-instance data (uid base, cluster ref) lives on the
:class:`~repro.gpu.machine.Machine`.  ``machine.cluster`` is the
:class:`~repro.gpu.gpu.GPU` that built the machine; it holds the
interlink, the home directory, the shared timestamp domain and every
GPU's machine.  :func:`repro.protocols.factory.build_protocol` takes
the classes of a cluster machine from :func:`xgpu_classes`.
"""

from __future__ import annotations

from repro.config import Protocol
from repro.core.l1 import GTSCL1Controller
from repro.core.l2 import GTSCL2Bank
from repro.core.messages import BusInv
from repro.mem.cache import CacheLine
from repro.protocols.base import Message
from repro.protocols.plain import (
    DisabledL1Controller,
    NonCoherentL1Controller,
    PlainL2Bank,
)
from repro.protocols.tc import TCL1Controller, TCL2Bank

from typing import Optional


class XGpuL1Mixin:
    """Request routing for a cluster L1: local bank or interlink."""

    __slots__ = ()

    def _send(self, msg: Message) -> None:
        machine = self.machine
        # global SM uid (absolute: idempotent under L2 retry re-entry)
        msg.sm = machine.sm_uid_base + self.sm_id
        addr = msg.addr
        config = machine.config
        home = (addr // self._num_banks) % config.n_gpus
        bank_id = addr % self._num_banks
        size = machine._msg_sizes.get(type(msg))
        if size is None:
            size = machine._size_of(msg)
        if home == machine.gpu_id:
            machine.noc.send(
                self._port, machine._bank_ports[bank_id], size,
                msg.kind, machine.l2_banks[bank_id].receive, msg)
        else:
            cluster = machine.cluster
            cluster.interlink.send(
                cluster.gpu_ports[machine.gpu_id],
                cluster.gpu_ports[home], size, msg.kind,
                cluster.machines[home].l2_banks[bank_id].receive, msg)


class XGpuL2Mixin:
    """Reply routing for a cluster L2 bank: global uid -> (gpu, sm)."""

    __slots__ = ()

    def _reply(self, sm_uid: int, msg: Message) -> None:
        machine = self.machine
        gpu, local = divmod(sm_uid, machine.config.num_sms)
        size = machine._msg_sizes.get(type(msg))
        if size is None:
            size = machine._size_of(msg)
        if gpu == machine.gpu_id:
            machine.noc.send(
                self._port, machine._sm_ports[local], size,
                msg.kind, machine.l1s[local].receive, msg)
        else:
            cluster = machine.cluster
            cluster.interlink.send(
                cluster.gpu_ports[machine.gpu_id],
                cluster.gpu_ports[gpu], size, msg.kind,
                cluster.machines[gpu].l1s[local].receive, msg)


# ---------------------------------------------------------------------------
# G-TSC: routing plus the shared-home eviction fold
# ---------------------------------------------------------------------------

class XGpuGTSCL1Controller(XGpuL1Mixin, GTSCL1Controller):
    __slots__ = ()


class XGpuGTSCL2Bank(XGpuL2Mixin, GTSCL2Bank):
    """G-TSC bank whose Fig. 6 fold goes through the home directory."""

    __slots__ = ()

    def _install_fill(self, addr: int) -> Optional[CacheLine]:
        home = self.machine.cluster.home
        line, evicted = self.cache.allocate(addr,
                                            evictable=self._evictable)
        if line is None:  # pragma: no cover - non-inclusive never pins
            return None
        if evicted is not None:
            self._evict(evicted)
        mem_ts = home.mem_ts_of(addr)
        if self.domain.clamp(mem_ts + self.config.lease) < 0:
            # overflow on refill: the reset listeners cleared the home
            # directory to floor 1; restart the lease from there
            mem_ts = home.mem_ts_of(addr)
        line.wts = mem_ts
        line.rts = mem_ts + self.config.lease
        line.version = self._memory_version(addr)
        line.dirty = False
        line.epoch = self.domain.epoch
        if self.audit is not None:
            self.audit.record(self.engine.now, "fill", self.track,
                              addr, line.wts, line.rts, 0,
                              self.domain.epoch)
        return line

    def _evict(self, evicted: CacheLine) -> None:
        self._counters["l2_evictions"] += 1
        if self.audit is not None:
            self.audit.record(self.engine.now, "evict", self.track,
                              evicted.addr, evicted.wts, evicted.rts,
                              0, self.domain.epoch)
        self.machine.cluster.home.fold(evicted.addr, evicted.rts)
        self._writeback(evicted)
        if self.config.l2_inclusive:
            # ablation only — back-invalidate every L1 in the cluster
            for sm_uid in range(self.config.num_sms *
                                self.config.n_gpus):
                self._reply(sm_uid, BusInv(evicted.addr, sm_uid))


# ---------------------------------------------------------------------------
# TC / MESI / baselines: routing only
# ---------------------------------------------------------------------------

class XGpuTCL1Controller(XGpuL1Mixin, TCL1Controller):
    __slots__ = ()


class XGpuTCL2Bank(XGpuL2Mixin, TCL2Bank):
    # TC's physical-time leases need one global clock, which the
    # shared event engine provides; the inclusive-L2 eviction stalls
    # are per-line state and work unchanged
    __slots__ = ()


class XGpuDisabledL1Controller(XGpuL1Mixin, DisabledL1Controller):
    __slots__ = ()


class XGpuNonCoherentL1Controller(XGpuL1Mixin, NonCoherentL1Controller):
    __slots__ = ()


class XGpuPlainL2Bank(XGpuL2Mixin, PlainL2Bank):
    __slots__ = ()


_CLASSES = {
    Protocol.GTSC: (XGpuGTSCL1Controller, XGpuGTSCL2Bank),
    Protocol.TC: (XGpuTCL1Controller, XGpuTCL2Bank),
    Protocol.DISABLED: (XGpuDisabledL1Controller, XGpuPlainL2Bank),
    Protocol.NONCOHERENT: (XGpuNonCoherentL1Controller, XGpuPlainL2Bank),
}


def xgpu_classes(protocol: Protocol) -> tuple:
    """The cluster (L1, L2) controller classes of ``protocol``.

    MESI's are built on first use, mirroring the factory's lazy MESI
    import.  Its full-map directory keys sharers/owner by ``msg.sm``,
    which inside a cluster is the global uid — membership and recall
    invalidations then route correctly through ``_reply``.
    """
    if protocol is Protocol.MESI and protocol not in _CLASSES:
        from repro.protocols.mesi import MESIL1Controller, MESIL2Bank

        class XGpuMESIL1Controller(XGpuL1Mixin, MESIL1Controller):
            __slots__ = ()

        class XGpuMESIL2Bank(XGpuL2Mixin, MESIL2Bank):
            __slots__ = ()

        _CLASSES[protocol] = (XGpuMESIL1Controller, XGpuMESIL2Bank)
    return _CLASSES[protocol]
