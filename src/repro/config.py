"""Configuration objects for the G-TSC reproduction.

The defaults mirror the simulated GPU of the paper's evaluation setup
(Section VI-A): 16 SMs with 16KB L1 each, 48 warps/SM, 32 threads/warp,
an 8-bank 1MB shared L2, and a GDDR-style memory partition per bank.

Two presets are provided:

* :func:`GPUConfig.paper` — the full-size machine of the paper.
* :func:`GPUConfig.small` — a scaled-down machine for unit tests, which
  keeps every structural ratio (banks, associativity, MSHR pressure)
  but runs orders of magnitude faster.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class Protocol(enum.Enum):
    """Coherence protocol selection.

    ``GTSC``
        The paper's contribution: timestamp-ordering coherence.
    ``TC``
        Temporal Coherence (HPCA'13): physical-time leases.
        TC-Strong under SC, TC-Weak (GWCT) under RC.
    ``DISABLED``
        The coherent baseline (BL): L1 caches turned off, every access
        served by the shared L2.
    ``NONCOHERENT``
        L1 caches enabled with no coherence at all.  Only correct for
        workloads that do not need coherence; used for the
        "Baseline W/L1" bar of Figure 12.
    ``MESI``
        A conventional full-map MSI directory protocol (write-back
        L1s, invalidations, recalls) — the Section II-C comparator the
        paper argues against; implemented here so that argument can be
        measured.
    """

    GTSC = "gtsc"
    TC = "tc"
    DISABLED = "disabled"
    NONCOHERENT = "noncoherent"
    MESI = "mesi"


class Consistency(enum.Enum):
    """Memory consistency model implemented on top of the protocol.

    ``SC``
        Sequential consistency: at most one outstanding memory request
        per warp; stores block the issuing warp until acknowledged.
    ``RC``
        Release consistency: stores are fire-and-forget, ordering is
        established only at FENCE instructions.
    """

    SC = "sc"
    RC = "rc"


class VisibilityPolicy(enum.Enum):
    """How a pending (unacknowledged) store is exposed within an SM.

    Section V-A of the paper describes two options for the update
    visibility problem:

    ``DELAY``
        Option 1 — block all accesses to the updated line until the
        store is acknowledged (the paper's choice; negligible overhead).
    ``OLD_COPY``
        Option 2 — keep the old copy accessible to other warps while
        the store is pending; only the writing warp waits for the ack.
    """

    DELAY = "delay"
    OLD_COPY = "old_copy"


class LeasePolicy(enum.Enum):
    """How the G-TSC L2 sizes the logical lease it grants.

    ``FIXED``
        The paper's design: every grant extends the lease by the
        configured constant.
    ``ADAPTIVE``
        A Tardis-2.0-inspired extension: lines that keep getting
        renewed earn progressively longer leases (up to
        ``lease * lease_max_factor``), cutting renewal round trips for
        hot read-mostly data; any store resets the line's history.
    """

    FIXED = "fixed"
    ADAPTIVE = "adaptive"


class SchedulerPolicy(enum.Enum):
    """Warp scheduling policy within an SM.

    ``RR``
        Loose round-robin: after issuing from a warp, move on —
        spreads progress evenly (the default; what the figure runs
        use).
    ``GTO``
        Greedy-then-oldest: keep issuing from the current warp until
        it stalls, then pick the oldest ready warp.  Improves
        intra-warp L1 locality at the cost of fairness — the standard
        alternative in GPU scheduling studies.
    """

    RR = "rr"
    GTO = "gto"


class NocTopology(enum.Enum):
    """Interconnect model between the SMs and the L2 banks.

    ``PORT``
        Bandwidth-limited endpoint ports with a flat base latency —
        the contention-at-the-edges abstraction used for the paper
        reproduction runs.
    ``MESH``
        A 2D mesh with XY dimension-order routing: per-hop latency and
        per-directed-link bandwidth, so distance and path contention
        both matter.  A substrate-fidelity option; the figures use
        PORT.
    """

    PORT = "port"
    MESH = "mesh"


class CombiningPolicy(enum.Enum):
    """How replicated read requests from warps in one SM are handled.

    Section V-B: either combine them in the L1 MSHR and issue renewals
    when the granted lease does not cover a waiter (``MSHR``, the
    paper's choice), or forward every request to L2 (``FORWARD_ALL``).
    """

    MSHR = "mshr"
    FORWARD_ALL = "forward_all"


@dataclass(frozen=True)
class GPUConfig:
    """Complete description of the simulated GPU.

    All latencies are in core cycles, all sizes in bytes, all
    bandwidths in bytes/cycle.  The configuration is immutable; derive
    variants with :meth:`with_changes`.
    """

    # --- core organisation -------------------------------------------------
    num_sms: int = 16
    max_warps_per_sm: int = 48

    # --- L1 (per SM) --------------------------------------------------------
    l1_size: int = 16 * 1024
    l1_assoc: int = 4
    l1_mshr_entries: int = 32
    l1_latency: int = 1

    # --- L2 (shared, banked) ------------------------------------------------
    num_l2_banks: int = 8
    l2_bank_size: int = 128 * 1024
    l2_assoc: int = 8
    l2_mshr_entries: int = 32
    l2_latency: int = 20
    l2_service: int = 2          # bank occupancy per request (pipelining)
    l2_inclusive: bool = False   # G-TSC supports non-inclusive (Section V-C)

    # --- line / addressing --------------------------------------------------
    line_size: int = 128

    # --- NoC ----------------------------------------------------------------
    noc_topology: NocTopology = NocTopology.PORT
    noc_latency: int = 12            # base one-way latency (PORT)
    noc_port_bandwidth: int = 32     # bytes/cycle per endpoint port
    mesh_hop_latency: int = 2        # cycles per hop (MESH)
    mesh_link_bandwidth: int = 32    # bytes/cycle per directed link
    noc_header_bytes: int = 8
    timestamp_bytes: int = 2         # 16-bit timestamps (Section V-D)
    tc_timestamp_bytes: int = 4      # TC uses 32-bit times (Section V-D)

    # --- DRAM ---------------------------------------------------------------
    dram_latency: int = 160
    dram_bandwidth: int = 16         # bytes/cycle per partition

    # --- multi-GPU (HALCONE-style scale-out) --------------------------------
    n_gpus: int = 1                  # 1 = the single-GPU machine of the paper
    interlink_latency: int = 100     # one-way inter-GPU link latency (cycles)
    interlink_bandwidth: int = 8     # bytes/cycle per GPU endpoint port
    home_ts_entries: int = 4096      # per-address mem_ts directory capacity

    # --- protocol parameters ------------------------------------------------
    protocol: Protocol = Protocol.GTSC
    consistency: Consistency = Consistency.RC
    lease: int = 10                  # logical lease for G-TSC (Fig. 14: 8-20)
    tc_lease: int = 300              # physical-cycle lease for TC
    ts_max: int = (1 << 16) - 1      # 16-bit timestamp space (Section V-D)
    visibility: VisibilityPolicy = VisibilityPolicy.DELAY
    combining: CombiningPolicy = CombiningPolicy.MSHR
    lease_policy: LeasePolicy = LeasePolicy.FIXED
    lease_max_factor: int = 8           # cap for adaptive leases

    # --- scheduling ---------------------------------------------------------
    mshr_retry_interval: int = 4     # cycles before retrying a full MSHR
    scheduler: SchedulerPolicy = SchedulerPolicy.RR

    # ------------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.l1_size % (self.l1_assoc * self.line_size):
            raise ValueError("l1_size must be a multiple of assoc * line_size")
        if self.l2_bank_size % (self.l2_assoc * self.line_size):
            raise ValueError(
                "l2_bank_size must be a multiple of assoc * line_size"
            )
        if self.lease <= 0:
            raise ValueError("lease must be positive")
        if self.lease_max_factor < 1:
            raise ValueError("lease_max_factor must be at least 1")
        if self.ts_max < 2 * self.lease * self.lease_max_factor:
            raise ValueError("ts_max too small for the configured lease")
        if self.n_gpus < 1:
            raise ValueError("n_gpus must be at least 1")
        if self.mshr_retry_interval < 1:
            # a retry in the refusing cycle finds the MSHR still full
            raise ValueError("mshr_retry_interval must be at least 1")
        if self.n_gpus > 1:
            if self.interlink_latency < 1:
                raise ValueError("interlink_latency must be positive")
            if self.interlink_bandwidth < 1:
                raise ValueError("interlink_bandwidth must be positive")
            if self.home_ts_entries < 1:
                raise ValueError("home_ts_entries must be positive")
            if self.noc_topology is not NocTopology.PORT:
                raise ValueError("multi-GPU requires the PORT NoC model")

    # --- derived geometry ---------------------------------------------------
    @property
    def l1_sets(self) -> int:
        """Number of sets in each private L1 cache."""
        return self.l1_size // (self.l1_assoc * self.line_size)

    @property
    def l2_sets(self) -> int:
        """Number of sets in each L2 bank."""
        return self.l2_bank_size // (self.l2_assoc * self.line_size)

    @property
    def total_l2_size(self) -> int:
        """Aggregate shared-cache capacity across all banks."""
        return self.num_l2_banks * self.l2_bank_size

    def bank_of(self, line_addr: int) -> int:
        """Map a line address to its home L2 bank (address interleaving)."""
        return line_addr % self.num_l2_banks

    def home_gpu_of(self, line_addr: int) -> int:
        """Map a line address to its home GPU (NUMA interleaving).

        Addresses interleave across L2 banks first (``bank_of``) and
        then across GPUs, so every line has exactly one home bank
        system-wide — L2 state is never replicated between GPUs.
        """
        return (line_addr // self.num_l2_banks) % self.n_gpus

    # --- presets -------------------------------------------------------------
    @classmethod
    def paper(cls, **overrides) -> "GPUConfig":
        """The full-size configuration from Section VI-A of the paper."""
        return cls(**overrides)

    @classmethod
    def small(cls, **overrides) -> "GPUConfig":
        """A scaled-down machine for fast unit tests.

        4 SMs x 8 warps, 2KB L1, 2 x 16KB L2 banks.  Structural ratios
        (associativity, relative latencies) match the paper preset.
        """
        params = dict(
            num_sms=4,
            max_warps_per_sm=8,
            l1_size=8 * 1024,
            l1_assoc=4,
            l1_mshr_entries=8,
            num_l2_banks=2,
            l2_bank_size=32 * 1024,
            l2_mshr_entries=8,
            noc_latency=6,
            dram_latency=60,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def tiny(cls, **overrides) -> "GPUConfig":
        """A minimal machine for protocol micro-tests and litmus tests.

        2 SMs x 2 warps with very small caches so that evictions,
        renewals and timestamp overflow are easy to provoke.
        """
        params = dict(
            num_sms=2,
            max_warps_per_sm=2,
            l1_size=512,
            l1_assoc=2,
            l1_mshr_entries=4,
            num_l2_banks=1,
            l2_bank_size=2 * 1024,
            l2_assoc=2,
            l2_mshr_entries=4,
            noc_latency=4,
            l2_latency=6,
            dram_latency=30,
        )
        params.update(overrides)
        return cls(**params)

    def with_changes(self, **overrides) -> "GPUConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """One-line human-readable summary used by the harness output."""
        gpus = f"{self.n_gpus}GPU x " if self.n_gpus > 1 else ""
        return (
            f"{self.protocol.value}/{self.consistency.value} "
            f"{gpus}{self.num_sms}SM x {self.max_warps_per_sm}w, "
            f"L1 {self.l1_size // 1024}KB, "
            f"L2 {self.num_l2_banks}x{self.l2_bank_size // 1024}KB, "
            f"lease={self.lease}"
        )
