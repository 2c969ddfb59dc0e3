"""G-TSC shared (L2) cache bank — Figures 1b, 4, 5, 6.

The defining property implemented here is that *writes never stall*:
a store is logically scheduled after every outstanding lease by
assigning it ``wts = max(rts + 1, warp_ts)`` (Fig. 5), so — unlike
TC — there is no waiting for physical lease expiry, no inclusive-L2
requirement, and no delayed eviction.  Evictions fold the victim's
``rts`` into the bank's single ``mem_ts`` (Fig. 6), which is all the
state needed to stay correct without per-block lease tracking in
memory (Section V-C).  In a multi-GPU cluster the fold goes to the
cluster's shared per-address home directory instead
(:class:`repro.multigpu.home.HomeDirectory`), chosen when the bank is
built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.messages import (
    BusAtm,
    BusAtmAck,
    BusFill,
    BusInv,
    BusRd,
    BusRnw,
    BusWr,
    BusWrAck,
)
from repro.config import LeasePolicy
from repro.core.timestamps import TimestampDomain
from repro.mem.cache import CacheLine
from repro.protocols.base import L2BankBase, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.machine import Machine


class GTSCL2Bank(L2BankBase):
    """One bank of the shared cache under G-TSC."""

    __slots__ = ("domain", "home", "mem_ts", "_fixed_lease", "_lease",
                 "_ts_max")

    # request dispatch by concrete class (same idiom as the L1)
    _handler_names = {
        BusRd: "_read",
        BusWr: "_write",
        BusAtm: "_write",
    }

    def __init__(self, bank_id: int, machine: "Machine") -> None:
        super().__init__(bank_id, machine)
        # the logical time this bank stamps leases in (one domain for
        # every bank of the machine, or of the cluster)
        domain: TimestampDomain = machine.timestamp_domain
        self.domain = domain
        # where evictions fold and fills start (Fig. 6): the bank's
        # scalar mem_ts when home is None (one GPU), else the
        # cluster's shared per-address home directory
        self.home = machine.home
        self.mem_ts = 1
        # under the paper's fixed policy the lease grant is a constant;
        # precompute it so _read skips the _lease_for call
        self._fixed_lease = (
            machine.config.lease
            if machine.config.lease_policy is LeasePolicy.FIXED else None)
        self._lease = machine.config.lease
        self._ts_max = domain.ts_max
        domain.on_reset(self._timestamp_reset)

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def _process(self, msg: Message) -> None:
        handler = self._handlers.get(type(msg))
        if handler is None:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message at G-TSC L2: {msg!r}")
        handler(self, msg)

    # ------------------------------------------------------------------
    # reads: renewal vs fill (Figure 4)
    # ------------------------------------------------------------------
    def _lease_for(self, line: CacheLine) -> int:
        """The logical lease this grant extends the line by.

        Fixed policy: the configured constant (the paper's design).
        Adaptive policy (Tardis-2.0-inspired extension): each renewal
        of an unmodified line doubles the grant, capped at
        ``lease * lease_max_factor`` — hot read-mostly lines stop
        paying renewal round trips.
        """
        base = self.config.lease
        if self.config.lease_policy is LeasePolicy.FIXED:
            return base
        factor = min(1 << min(line.renewals, 10),
                     self.config.lease_max_factor)
        return base * factor

    def _read(self, msg: BusRd) -> None:
        line = self.cache.lookup(msg.addr)
        if line is None:
            self._miss(msg)
            return
        self._counters["l2_hit"] += 1

        fresh_request = msg.epoch == self.domain.epoch
        renewal = fresh_request and msg.wts == line.wts
        if renewal:
            line.renewals += 1
        warp_ts = msg.warp_ts if fresh_request else 1
        lease = self._fixed_lease
        if lease is None:
            lease = self._lease_for(line)
        granted = warp_ts + lease
        desired = granted if granted > line.rts else line.rts
        if desired > self._ts_max:
            # overflow reset fired: recompute against the reset line;
            # the requester's epoch is now stale, forcing a fill
            self.domain.overflow_reset()
            line = self.cache.lookup(msg.addr)
            fresh_request = False
            renewal = False
            warp_ts = 1
            desired = max(line.rts, 1 + self.config.lease)
        line.rts = desired

        if self.audit is not None:
            self.audit.record(self.engine.now,
                              "renew" if renewal else "read",
                              self.track, msg.addr, line.wts, line.rts,
                              warp_ts, self.domain.epoch)
        if renewal:
            # requester already holds this exact version: extend the
            # lease without resending the data (a G-TSC traffic win)
            self._counters["l2_renewals"] += 1
            if self.trace is not None:
                self.trace.instant(self.engine.now, self.track, "renew",
                                   {"addr": msg.addr, "rts": line.rts})
            self._reply(msg.sm, BusRnw(msg.addr, msg.sm, line.rts,
                                       self.domain.epoch))
        else:
            self._reply(msg.sm, BusFill(msg.addr, msg.sm, line.wts,
                                        line.rts, line.version,
                                        self.domain.epoch))

    # ------------------------------------------------------------------
    # writes: logically scheduled in the future, never stalled (Fig. 5)
    # ------------------------------------------------------------------
    def _write(self, msg: BusWr) -> None:
        """Perform a store, or an atomic (``BusAtm``), at the bank.

        An atomic is the store plus the read of the version it
        replaces (a protocol extension): its timestamps follow Fig. 5
        like any store's, and the read is atomic by construction
        because the bank performs both halves in one step.  Neither
        ever stalls.
        """
        line = self.cache.lookup(msg.addr)
        if line is None:
            # both loads and stores fetch the line from DRAM on a miss
            self._miss(msg)
            return
        self._counters["l2_hit"] += 1
        atomic = type(msg) is BusAtm
        if atomic:
            self._counters["l2_atomics"] += 1

        lease = self._lease
        warp_ts = msg.warp_ts if msg.epoch == self.domain.epoch else 1
        wts = max(line.rts + 1, warp_ts)
        if wts + lease > self._ts_max:
            self.domain.overflow_reset()
            line = self.cache.lookup(msg.addr)
            warp_ts = 1  # requester's clock is from the retired epoch
            wts = max(line.rts + 1, 1)
        old_version = line.version
        line.wts = wts
        line.rts = wts + lease
        line.version = msg.version
        line.dirty = True
        line.renewals = 0  # a write ends the line's read-only streak
        self.machine.versions.record_wts(msg.addr, msg.version, wts,
                                         self.domain.epoch)
        if self.audit is not None:
            self.audit.record(self.engine.now,
                              "atomic" if atomic else "write", self.track,
                              msg.addr, line.wts, line.rts, warp_ts,
                              self.domain.epoch)
        if atomic:
            ack = BusAtmAck(msg.addr, msg.sm, line.wts, line.rts,
                            old_version, self.domain.epoch,
                            version=msg.version)
        else:
            ack = BusWrAck(msg.addr, msg.sm, line.wts, line.rts,
                           self.domain.epoch, version=msg.version)
        self._reply(msg.sm, ack)

    # ------------------------------------------------------------------
    # DRAM fill and eviction (Figure 6)
    # ------------------------------------------------------------------
    def _install_fill(self, addr: int) -> Optional[CacheLine]:
        # non-inclusive L2: every line may be evicted, always, so the
        # victim is plain LRU.  This is the Section V-C contrast with
        # TC, whose inclusive L2 must refuse to evict lines with
        # unexpired leases.
        line, evicted = self.cache.allocate(addr)
        if line is None:  # pragma: no cover - non-inclusive never pins
            return None
        if evicted is not None:
            self._evict(evicted)
        home = self.home
        mem_ts = self.mem_ts if home is None else home.mem_ts_of(addr)
        if self.domain.clamp(mem_ts + self.config.lease) < 0:
            # overflow on refill: the reset listeners put the bank's
            # mem_ts, or the home directory's floor, back to 1
            mem_ts = 1
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
        """Fold the victim's lease into ``mem_ts`` and write back."""
        self._counters["l2_evictions"] += 1
        if self.audit is not None:
            self.audit.record(self.engine.now, "evict", self.track,
                              evicted.addr, evicted.wts, evicted.rts,
                              0, self.domain.epoch)
        if self.home is None:
            self.mem_ts = max(self.mem_ts, evicted.rts)
        else:
            self.home.fold(evicted.addr, evicted.rts)
        self._writeback(evicted)
        if self.config.l2_inclusive:
            # ablation only: classic inclusive back-invalidation of
            # every L1 of every GPU, with its recall traffic (G-TSC
            # does not need this)
            for sm_uid in range(self.config.num_sms * self.config.n_gpus):
                self._reply(sm_uid, BusInv(evicted.addr, sm_uid))

    # ------------------------------------------------------------------
    # timestamp overflow (Section V-D)
    # ------------------------------------------------------------------
    def _timestamp_reset(self) -> None:
        """Rewrite every timestamp in this bank; data stays in place."""
        lease = self.config.lease
        epoch = self.domain.epoch
        for line in self.cache.lines():
            line.wts = 1
            line.rts = lease
            line.epoch = epoch
        self.mem_ts = 1
        if self.audit is not None:
            self.audit.record(self.engine.now, "ts_reset", self.track,
                              0, 1, self.config.lease, 0,
                              self.domain.epoch)
        if self.trace is not None:
            self.trace.instant(self.engine.now, self.track, "ts_reset",
                               {"epoch": self.domain.epoch})
