"""Multi-GPU timestamp coherence (HALCONE-style scale-out).

The single-GPU :class:`~repro.gpu.machine.Machine` encapsulates one
full GPU — SMs, private L1s, a banked L2, the NoC, DRAM partitions.
With ``config.n_gpus > 1``, :class:`repro.gpu.gpu.GPU` scales that
machine out: it builds ``n_gpus`` machines on **one shared event
engine**, links them with a second :class:`~repro.mem.noc.Network`
(the ``interlink`` counter family), and gives the G-TSC protocol a
shared per-address memory-timestamp home layer
(:class:`~repro.multigpu.home.HomeDirectory`, this package) so leases
stay monotone across GPU boundaries — the design HALCONE
(arXiv 2007.04292) builds on top of Tardis-style logical leases.

Addresses are NUMA-interleaved: every line has exactly one home L2
bank system-wide (``config.home_gpu_of`` / ``config.bank_of``), so
L2 state is never replicated between GPUs and each protocol's
controllers run unchanged — cross-GPU support is a routing concern,
not a new state machine: each machine's route tables
(:meth:`repro.gpu.machine.Machine.connect`) send a request for a
remote home, and a reply to a remote SM, over the link.

A single-GPU run never imports this package.
"""

from __future__ import annotations

from repro.multigpu.home import HomeDirectory

__all__ = ["HomeDirectory"]
