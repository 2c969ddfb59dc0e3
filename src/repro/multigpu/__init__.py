"""Multi-GPU timestamp coherence (HALCONE-style scale-out).

The single-GPU :class:`~repro.gpu.machine.Machine` encapsulates one
full GPU — SMs, private L1s, a banked L2, the NoC, DRAM partitions.
With ``config.n_gpus > 1``, :class:`repro.gpu.gpu.GPU` scales that
machine out: it builds ``n_gpus`` machines on **one shared event
engine**, connects their L2 layers through the inter-GPU
:class:`~repro.multigpu.interlink.Interlink` of this package, and
gives the G-TSC protocol a shared per-address memory-timestamp home
layer (:class:`~repro.multigpu.home.HomeDirectory`) so leases stay
monotone across GPU boundaries — the design HALCONE
(arXiv 2007.04292) builds on top of Tardis-style logical leases.

Addresses are NUMA-interleaved: every line has exactly one home L2
bank system-wide (``config.home_gpu_of`` / ``config.bank_of``), so
L2 state is never replicated between GPUs and each protocol's bank
state machine runs unchanged — cross-GPU support is a routing
concern (``repro.protocols.xgpu``), not a new state machine.

A single-GPU run never imports this package.
"""

from __future__ import annotations

from repro.multigpu.home import HomeDirectory
from repro.multigpu.interlink import Interlink

__all__ = ["HomeDirectory", "Interlink"]
