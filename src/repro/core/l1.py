"""G-TSC private (L1) cache controller — Figures 1a, 2, 3, 7, 8.

Implements, per the paper:

* the load flowchart (Fig. 2): hit requires a tag match *and*
  ``warp_ts <= rts``; a hit advances the warp's logical clock to at
  least the line's ``wts``; misses send ``BusRd`` carrying the stale
  copy's ``wts`` (0 on a cold miss) so the L2 can answer with a
  data-less renewal when possible;
* the store flowchart (Fig. 3): write-through — every store is
  performed at the L2 and acknowledged with its assigned lease;
* update visibility (Section V-A): while a store to a line is pending,
  either *all* accesses to that line are delayed until the ack
  (option 1, the paper's choice) or the old copy stays readable to
  other warps while only the writer waits (option 2);
* request combining (Section V-B, Fig. 11): replicated reads from
  different warps park in one MSHR entry; waiters whose ``warp_ts``
  the granted lease does not cover trigger a renewal request rather
  than being forwarded individually (unless the forward-all ablation
  is selected);
* timestamp overflow (Section V-D): responses carry the L2 epoch; on
  seeing a newer epoch the L1 flushes itself and resets its warps'
  logical clocks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Set

from repro.config import CombiningPolicy, VisibilityPolicy
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
from repro.mem.cache import CacheArray
from repro.protocols.base import L1ControllerBase, LoadWaiter, Message


def _unpinned(line) -> bool:
    """Eviction predicate for fills: a way is up for grabs only when no
    unacknowledged store is outstanding on it (module-level so the fill
    path allocates no closure)."""
    return line.pending_stores == 0

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.machine import Machine
    from repro.gpu.warp import Warp


class GTSCL1Controller(L1ControllerBase):
    """Per-SM L1 controller for G-TSC."""

    __slots__ = ("cache", "epoch", "_locked_waiters", "_pending_writers",
                 "_warps")

    # response dispatch by concrete message class: one dict lookup on
    # the hot receive path instead of an isinstance ladder
    _handler_names = {
        BusFill: "_on_fill",
        BusRnw: "_on_renewal",
        BusWrAck: "_on_write_ack",
        BusAtmAck: "_on_write_ack",
        BusInv: "_on_back_inv",
    }

    def __init__(self, sm_id: int, machine: "Machine") -> None:
        super().__init__(sm_id, machine)
        config = machine.config
        self.cache = CacheArray(config.l1_sets, config.l1_assoc)
        self.epoch = 0
        # loads delayed by the update-visibility rule, per line
        self._locked_waiters: Dict[int, List[tuple]] = {}
        # warps with a pending store or atomic per line (for the
        # OLD_COPY policy)
        self._pending_writers: Dict[int, Set[int]] = {}
        # every warp that ever touched this L1 (for epoch resets)
        self._warps: Set["Warp"] = set()

    # ------------------------------------------------------------------
    # SM-facing operations
    # ------------------------------------------------------------------
    def load(self, warp: "Warp", addr: int,
             on_done: Callable[[], None]) -> bool:
        self._warps.add(warp)
        counters = self._counters
        counters["l1_access"] += 1

        # update-visibility rule (Section V-A): the common case (no
        # pending store or atomic on this line) must cost one dict
        # probe, so the policy check runs only when one exists
        if addr in self._pending_writes and self._blocks_load(warp, addr):
            counters["l1_locked_wait"] += 1
            self._park_locked(warp, addr, on_done)
            return True

        # tag probe + lease check (the Fig. 2 hit test): lookup()
        # inlined.  The LRU touch fires on any tag match, hit or
        # expired, exactly like lookup() does.
        cache = self.cache
        slot = cache._where.get(addr)
        if slot is not None:
            cache._tick += 1
            cache._lru[slot] = cache._tick
            line = cache._lines[slot]
            if warp.ts <= line.rts:
                counters["l1_hit"] += 1
                wts = line.wts
                if wts > warp.ts:
                    warp.ts = wts
                engine = self.engine
                if self.audit is not None:
                    self.audit.record(engine.now, "l1_load",
                                      self.track, addr, wts, line.rts,
                                      warp.ts, self.epoch, warp.uid)
                self._record_load(warp, addr, line.version, engine.now,
                                  hit=True, logical_ts=warp.ts,
                                  epoch=self.epoch)
                engine.post(engine.now + self._l1_latency, on_done)
                return True

        # miss: cold (no tag) or coherence (lease behind warp_ts)
        counters["l1_miss"] += 1
        stale_wts = 0
        if slot is not None:
            counters["l1_expired_miss"] += 1
            stale_wts = line.wts

        entry = self.mshr.get(addr)
        combine = self.config.combining is CombiningPolicy.MSHR
        if entry is not None and combine:
            entry.waiters.append(LoadWaiter(warp, on_done, self.engine.now))
            return True
        if entry is None:
            if self.mshr.full:
                self._counters["l1_mshr_stall"] += 1
                if self.trace is not None:
                    self.trace.instant(self.engine.now, self.track,
                                       "mshr_stall", {"addr": addr})
                return False
            entry = self.mshr.allocate(addr)
        entry.waiters.append(LoadWaiter(warp, on_done, self.engine.now))
        self._send(BusRd(addr, self.sm_id, stale_wts, warp.ts, self.epoch))
        entry.issued = True
        return True

    def store(self, warp: "Warp", addr: int,
              on_done: Callable[[], None]) -> bool:
        return self._issue_write(warp, addr, on_done, "l1_store", BusWr)

    def atomic(self, warp: "Warp", addr: int,
               on_done: Callable[[], None]) -> bool:
        """Atomic RMW: performed at the L2 through the store path; the
        updated line is unreadable locally until the ack, exactly like
        a store under the update-visibility rule."""
        return self._issue_write(warp, addr, on_done, "l1_atomic", BusAtm)

    def _issue_write(self, warp: "Warp", addr: int,
                     on_done: Callable[[], None], counter: str,
                     request: type) -> bool:
        """Write a store (``BusWr``) or an atomic (``BusAtm``) through
        to the L2 (Fig. 3) and hold it until its ack."""
        self._warps.add(warp)
        counters = self._counters
        counters["l1_access"] += 1
        counters[counter] += 1
        line = self.cache.lookup(addr)
        if line is not None:
            # block accesses to the updated line until the ack arrives
            line.pending_stores += 1
        writers = self._pending_writers.get(addr)
        if writers is None:
            writers = self._pending_writers[addr] = set()
        writers.add(warp.uid)
        version = self._push_write(warp, addr, on_done)
        self._send(request(addr, self.sm_id, warp.ts, version, self.epoch))
        return True

    # ------------------------------------------------------------------
    # update-visibility policy (Section V-A)
    # ------------------------------------------------------------------
    def _blocks_load(self, warp: "Warp", addr: int) -> bool:
        """Does the update-visibility rule delay this load?

        Called by :meth:`load` once a pending store or atomic on the
        line is known to exist.  Option 1 (DELAY): any pending store to
        the line blocks every load of it from this SM.  Option 2
        (OLD_COPY): only the warps that themselves have a pending store
        to the line wait (they must not read past their own
        unacknowledged write); other warps may keep reading the old
        copy.
        """
        if self.config.visibility is VisibilityPolicy.DELAY:
            return True
        writers = self._pending_writers.get(addr)
        return writers is not None and warp.uid in writers

    def _park_locked(self, warp: "Warp", addr: int,
                     on_done: Callable[[], None]) -> None:
        """Hold a load the update-visibility rule delays until the
        line's pending stores drain."""
        waiters = self._locked_waiters.get(addr)
        if waiters is None:
            waiters = self._locked_waiters[addr] = []
        waiters.append((warp, on_done, self.engine.now))

    def _release_locked(self, addr: int) -> None:
        """Replay loads that were delayed by a (now drained) store."""
        if addr in self._pending_writes:
            return
        self._pending_writers.pop(addr, None)
        waiters = self._locked_waiters.pop(addr, None)
        if not waiters:
            return
        for warp, on_done, _issue in waiters:
            accepted = self.load(warp, addr, on_done)
            if not accepted:
                # MSHR full: put the load back in the locked queue and
                # retry on a timer rather than losing it
                self._park_locked(warp, addr, on_done)
                self.engine.schedule(self.config.mshr_retry_interval,
                                     self._retry_locked, addr)

    def _retry_locked(self, addr: int) -> None:
        waiters = self._locked_waiters.pop(addr, None)
        if not waiters:
            return
        for warp, on_done, _issue in waiters:
            if not self.load(warp, addr, on_done):
                self._park_locked(warp, addr, on_done)
                self.engine.schedule(self.config.mshr_retry_interval,
                                     self._retry_locked, addr)

    # ------------------------------------------------------------------
    # responses from L2
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        epoch = getattr(msg, "epoch", self.epoch)
        if epoch > self.epoch:
            self._epoch_reset(epoch)
        handler = self._handlers.get(type(msg))
        if handler is None:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message at G-TSC L1: {msg!r}")
        handler(self, msg)

    def _on_back_inv(self, msg: BusInv) -> None:
        # inclusive-L2 ablation: back-invalidate (never drops a
        # line with a pending store; timestamps keep that safe)
        line = self.cache.lookup(msg.addr, touch=False)
        if line is not None and line.pending_stores == 0:
            self.cache.invalidate(msg.addr)
            self._counters["l1_back_invalidations"] += 1

    def _on_fill(self, msg: BusFill) -> None:
        if msg.epoch < self.epoch:
            # response crossed a timestamp reset: its timestamps are
            # meaningless now; refetch for whoever is still waiting
            self._refetch(msg.addr)
            return
        line, _evicted = self.cache.allocate(msg.addr, _unpinned)
        if line is None:
            # every way is pinned by pending stores: serve the waiters
            # straight from the response without caching the line
            self._drain(msg.addr, msg.wts, msg.rts, msg.version,
                        installed=False)
            return
        if line.wts <= msg.wts:
            line.wts = msg.wts
            line.rts = max(line.rts, msg.rts)
            line.version = msg.version
            line.epoch = self.epoch
        self._drain(msg.addr, line.wts, line.rts, line.version,
                    installed=True)

    def _on_renewal(self, msg: BusRnw) -> None:
        if msg.epoch < self.epoch:
            self._refetch(msg.addr)
            return
        line = self.cache.lookup(msg.addr)
        if line is None:
            # renewed line was evicted while the renewal was in flight;
            # only a full fill can help now
            self._refetch(msg.addr)
            return
        line.rts = max(line.rts, msg.rts)
        self._drain(msg.addr, line.wts, line.rts, line.version,
                    installed=True)

    def _on_write_ack(self, msg: BusWrAck) -> None:
        """A store's ack, or an atomic's (``BusAtmAck``, which adds the
        old version): adopt the assigned lease and wake the warp."""
        pending = self._pop_write(msg.addr, msg.version)
        atomic = type(msg) is BusAtmAck
        warp = pending.warp
        stale = msg.epoch < self.epoch
        line = self.cache.lookup(msg.addr, touch=False)
        if line is not None:
            if line.pending_stores > 0:
                line.pending_stores -= 1
            if not stale and msg.wts >= line.wts:
                line.wts = msg.wts
                line.rts = msg.rts
                line.version = pending.version
                line.epoch = self.epoch
        if not stale:
            warp.ts = max(warp.ts, msg.wts)
            if self.audit is not None:
                self.audit.record(self.engine.now,
                                  "l1_atomic_ack" if atomic
                                  else "l1_store_ack",
                                  self.track, msg.addr, msg.wts,
                                  msg.rts, warp.ts, self.epoch, warp.uid)
        self._finish_write(pending, msg.old_version if atomic else None,
                           warp.ts if stale else msg.wts, self.epoch)
        self._drop_writer_if_drained(msg.addr, warp.uid)
        self._release_locked(msg.addr)

    def _drop_writer_if_drained(self, addr: int, warp_uid: int) -> None:
        """Clear a warp from the pending-writer set once it has no
        in-flight store or atomic left on the line."""
        writers = self._pending_writers.get(addr)
        if writers is None or warp_uid not in writers:
            return
        if not any(p.warp.uid == warp_uid
                   for p in self._pending_writes.get(addr, ())):
            writers.discard(warp_uid)

    # ------------------------------------------------------------------
    # MSHR drain / renewal (Section V-B)
    # ------------------------------------------------------------------
    def _drain(self, addr: int, wts: int, rts: int, version: int,
               installed: bool) -> None:
        """Complete the waiters a lease ``[wts, rts]`` now covers.

        Waiters whose ``warp_ts`` lies beyond ``rts`` stay parked and a
        single renewal request (carrying the largest straggler
        timestamp) is sent on their behalf — Figure 11's resolution.
        """
        # mshr.drain(addr, keep=...) open-coded: the keep-predicate form
        # costs a lambda call per waiter, and the straggler check below
        # can reuse the entry instead of a second lookup.  Stragglers
        # (warp.ts beyond the lease) are rare, so scan for one first and
        # only split the waiter list when needed.
        mshr = self.mshr
        entry = mshr.get(addr)
        done: list = []
        stragglers = None
        if entry is not None:
            waiters = entry.waiters
            for w in waiters:
                if w.warp.ts > rts:
                    done = [w for w in waiters if w.warp.ts <= rts]
                    stragglers = [w for w in waiters if w.warp.ts > rts]
                    entry.waiters = stragglers
                    break
            else:
                done = waiters
                entry.waiters = []
                mshr.release(addr)
        audit = self.audit
        engine = self.engine
        now = engine.now
        for waiter in done:
            waiter.warp.ts = max(waiter.warp.ts, wts)
            if audit is not None:
                audit.record(self.engine.now, "l1_load", self.track,
                             addr, wts, rts, waiter.warp.ts,
                             self.epoch, waiter.warp.uid)
            self._record_load(waiter.warp, addr, version,
                              waiter.issue_cycle, hit=False,
                              logical_ts=waiter.warp.ts, epoch=self.epoch)
            engine.post(now, waiter.on_done)
        if stragglers:
            top_ts = max(w.warp.ts for w in stragglers)
            if installed:
                self._counters["l1_renewals"] += 1
                if self.trace is not None:
                    self.trace.instant(self.engine.now, self.track,
                                       "renew_request",
                                       {"addr": addr, "top_ts": top_ts})
                self._send(BusRd(addr, self.sm_id, wts, top_ts, self.epoch))
            else:
                self._send(BusRd(addr, self.sm_id, 0, top_ts, self.epoch))

    def _refetch(self, addr: int) -> None:
        """Re-issue a full read for whatever is still parked on ``addr``."""
        entry = self.mshr.get(addr)
        if entry is None or not entry.waiters:
            return
        top_ts = max(w.warp.ts for w in entry.waiters)
        self._send(BusRd(addr, self.sm_id, 0, top_ts, self.epoch))

    # ------------------------------------------------------------------
    # epoch reset / flush
    # ------------------------------------------------------------------
    def _epoch_reset(self, new_epoch: int) -> None:
        """A response revealed a timestamp overflow reset (Section V-D)."""
        self.epoch = new_epoch
        self.cache.flush()
        for warp in self._warps:
            warp.ts = 1
            warp.epoch = new_epoch
        if self.audit is not None:
            self.audit.record(self.engine.now, "l1_epoch_reset",
                              self.track, 0, 1, 1, 1, new_epoch)
        if self.trace is not None:
            self.trace.instant(self.engine.now, self.track,
                               "epoch_reset", {"epoch": new_epoch})

    def flush(self) -> None:
        """Kernel boundary: drop all lines and reset warp clocks."""
        self.cache.flush()
        for warp in self._warps:
            warp.ts = 1
