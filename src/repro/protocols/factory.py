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

#: (L1, L2) controller classes per protocol; MESI's are imported only
#: when a config asks for them
_CLASSES = {
    Protocol.GTSC: (GTSCL1Controller, GTSCL2Bank),
    Protocol.TC: (TCL1Controller, TCL2Bank),
    Protocol.DISABLED: (DisabledL1Controller, PlainL2Bank),
    Protocol.NONCOHERENT: (NonCoherentL1Controller, PlainL2Bank),
}


def build_protocol(machine: "Machine") -> None:
    """Populate ``machine.l1s`` and ``machine.l2_banks`` per the config.

    The controllers are the same on one GPU and in a multi-GPU
    cluster: they route through the machine's route tables, and the
    G-TSC banks take the machine's timestamp domain (a cluster's
    machines share the one their GPU injects; a lone machine gets a
    fresh one here) and home directory.  MESI is imported only when
    needed, so a run of any other protocol never loads it.
    """
    config = machine.config
    if config.protocol is Protocol.MESI:
        from repro.protocols.mesi import MESIL1Controller, MESIL2Bank
        l1_cls, l2_cls = MESIL1Controller, MESIL2Bank
    else:
        l1_cls, l2_cls = _CLASSES[config.protocol]
    if config.protocol is Protocol.GTSC and machine.timestamp_domain is None:
        machine.timestamp_domain = TimestampDomain(
            config.ts_max, config.lease, machine.stats)
    machine.l2_banks = [l2_cls(b, machine)
                        for b in range(config.num_l2_banks)]
    machine.l1s = [l1_cls(s, machine) for s in range(config.num_sms)]
