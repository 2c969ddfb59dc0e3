"""Instantiate the configured protocol's L1 controllers and L2 banks."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import Protocol
from repro.core.l1 import GTSCL1Controller
from repro.core.l2 import GTSCL2Bank
from repro.core.timestamps import TimestampDomain
from repro.protocols.plain import (
    DisabledL1Controller,
    NonCoherentL1Controller,
    PlainL2Bank,
)
from repro.protocols.tc import TCL1Controller, TCL2Bank

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.machine import Machine

#: (L1, L2) controller classes of a lone GPU; MESI's are imported
#: only when a config asks for them
_CLASSES = {
    Protocol.GTSC: (GTSCL1Controller, GTSCL2Bank),
    Protocol.TC: (TCL1Controller, TCL2Bank),
    Protocol.DISABLED: (DisabledL1Controller, PlainL2Bank),
    Protocol.NONCOHERENT: (NonCoherentL1Controller, PlainL2Bank),
}


def build_protocol(machine: "Machine") -> None:
    """Populate ``machine.l1s`` and ``machine.l2_banks`` per the config.

    A machine inside a multi-GPU cluster (``machine.cluster``, set by
    :class:`repro.gpu.gpu.GPU` when ``n_gpus > 1``) takes the
    cross-GPU variants of :mod:`repro.protocols.xgpu` — same state
    machines, interlink-aware routing — and, under G-TSC, the
    cluster's shared timestamp domain; a lone machine gets a fresh
    domain.  MESI and the cluster variants are imported only when
    needed, so a single-GPU run of any other protocol never loads
    them.
    """
    config = machine.config
    cluster = machine.cluster
    if cluster is not None:
        from repro.protocols.xgpu import xgpu_classes
        l1_cls, l2_cls = xgpu_classes(config.protocol)
    elif config.protocol is Protocol.MESI:
        from repro.protocols.mesi import MESIL1Controller, MESIL2Bank
        l1_cls, l2_cls = MESIL1Controller, MESIL2Bank
    else:
        l1_cls, l2_cls = _CLASSES[config.protocol]
    bank_args = ()
    if config.protocol is Protocol.GTSC:
        if cluster is not None:
            machine.timestamp_domain = cluster.timestamp_domain
        else:
            machine.timestamp_domain = TimestampDomain(
                config.ts_max, config.lease, machine.stats)
        # G-TSC banks take the domain they stamp leases in
        bank_args = (machine.timestamp_domain,)
    machine.l2_banks = [l2_cls(b, machine, *bank_args)
                        for b in range(config.num_l2_banks)]
    machine.l1s = [l1_cls(s, machine) for s in range(config.num_sms)]
