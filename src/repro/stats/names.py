"""Canonical registry of every statistic name the simulator emits.

The :class:`~repro.stats.collector.StatsCollector` is schemaless — any
``stats.add("typo_counter")`` silently creates a new counter, and the
harness only notices when a figure comes out empty.  This module is
the single vocabulary: every counter bumped anywhere in the simulator,
every histogram, and the few values ``GPU.finish`` writes directly
must appear here.  A test drives one smoke run of each protocol and
fails on any emitted name the registry does not know, so adding a
counter means adding it here in the same change.
"""

from __future__ import annotations

from typing import Iterable, Set

#: Every fixed-name counter the simulator bumps via ``stats.add``.
COUNTERS = frozenset({
    # engine / SM
    "cycles",                   # total execution cycles of the kernel
    "instructions",             # warp instructions issued
    "mem_instructions",         # load/store/atomic instructions issued
    "warps_retired",
    "stall_cycles",
    "stall_mem_cycles",         # SM-cycles where issue was blocked only
                                # by outstanding memory (Fig. 13)
    "barriers",
    "barrier_releases",
    "fences",
    "fence_wait_cycles",
    # L1
    "l1_access",
    "l1_hit",
    "l1_miss",
    "l1_expired_miss",          # tag hit but lease/timestamp expired
    "l1_store",
    "l1_store_hit_m",
    "l1_atomic",
    "l1_renewals",              # renewal requests sent (G-TSC)
    "l1_locked_wait",           # loads delayed by a pending write
    "l1_mshr_stall",
    "l1_dead_on_arrival",
    "l1_back_invalidations",
    "l1_invalidations_received",
    "l1_stale_invalidations",
    # L2
    "l2_access",
    "l2_hit",
    "l2_miss",
    "l2_atomics",
    "l2_renewals",
    "l2_evictions",
    "l2_evict_stall",           # TC: replacement stalls due to inclusion
    "l2_write_stalls",
    "l2_write_stall_cycles",    # TC: cycles writes waited for leases
    "l2_mshr_stall",
    "l2_blocked_requests",
    # MESI directory
    "dir_blocked_requests",
    "dir_invalidations",
    "dir_recalls",
    "dir_recall_invalidations",
    # interconnect / memory
    "noc_bytes",                # total NoC traffic
    "noc_messages",
    "noc_hops",
    "noc_latency_sum",
    "dram_reads",
    "dram_writes",
    # inter-GPU interconnect (repro.multigpu)
    "interlink_bytes",
    "interlink_messages",
    "interlink_latency_sum",
    "home_ts_summarizations",
    # timestamps (G-TSC)
    "ts_overflows",             # G-TSC timestamp-reset events
    "kernel_ts_resets",
})

#: Engine dispatch counters, reported by ``Engine.counters()``: events
#: scheduled, fired and cancelled.  They count the event stream, not
#: the simulated machine, so they never enter ``RunStats.counters``.
#: ``repro profile`` prints their sum over fresh simulations, and the
#: benchmark derives ``engine.events_fired`` and ``engine.cancel_ratio``
#: from the runner's ``engine_counters``.
ENGINE_COUNTERS = frozenset({
    "engine_events_scheduled",
    "engine_events_fired",
    "engine_cancelled",
})

#: Latency distributions recorded via ``stats.hist.add``.
HISTOGRAMS = frozenset({
    "load_latency",
    "store_latency",
    "atomic_latency",
})

#: Families of counters whose suffix is data-dependent: the bytes per
#: message class (``noc_bytes_ctrl``, ``noc_bytes_data``, ...).
DYNAMIC_PREFIXES = ("noc_bytes_", "interlink_bytes_")


def is_registered(name: str) -> bool:
    """Whether ``name`` is a known counter (fixed or dynamic family)."""
    if name in COUNTERS or name in ENGINE_COUNTERS:
        return True
    return any(name.startswith(prefix) and len(name) > len(prefix)
               for prefix in DYNAMIC_PREFIXES)


def unregistered(names: Iterable[str]) -> Set[str]:
    """The subset of ``names`` the registry does not know about."""
    return {name for name in names if not is_registered(name)}
