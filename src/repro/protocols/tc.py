"""Temporal Coherence (TC) — the time-based baseline (Section II-D).

TC assigns each L1 copy a *physical-time* lease counted on globally
synchronized counters.  The behaviours that G-TSC is designed to
remove are modelled faithfully:

* **Write stalls (TC-Strong / SC):** a store must wait at the L2 until
  every outstanding lease on the line has expired; while it waits, all
  subsequent requests to the line queue behind it (Section II-D3).
* **GWCT (TC-Weak / RC):** stores complete immediately but their
  acknowledgment carries the Global Write Completion Time — the cycle
  at which all stale copies will have self-invalidated — and fences
  stall the warp until that physical time.
* **Inclusive L2 (Section II-D2):** a line with an unexpired lease
  cannot be evicted; when every way of a set is lease-pinned,
  replacement itself stalls.
* **Expiration misses:** leases expire with wall-clock time whether or
  not anybody wrote, so read-mostly data is periodically refetched —
  with full data responses, since TC has no data-less renewal.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from repro.config import Consistency
from repro.mem.cache import CacheArray, CacheLine
from repro.protocols.base import L1ControllerBase, L2BankBase, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.machine import Machine
    from repro.gpu.warp import Warp

#: a line's lease end, for the C-level min() in TCL2Bank._retry_fill
_expiry_of = attrgetter("expiry")


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------

class TCRd(Message):
    """Read request; TC has no renewal, so no timestamps are carried."""

    kind = "ctrl"
    __slots__ = ()


class TCWr(Message):
    """Write-through store with data."""

    kind = "data"
    __slots__ = ("version",)

    def __init__(self, addr: int, sm: int, version: int) -> None:
        self.addr = addr
        self.sm = sm
        self.version = version

    def payload_bytes(self, config) -> int:
        return config.line_size


class TCFill(Message):
    """Data plus the granted lease's expiry time (32-bit)."""

    kind = "data"
    __slots__ = ("version", "expiry")

    def __init__(self, addr: int, sm: int, version: int,
                 expiry: int) -> None:
        self.addr = addr
        self.sm = sm
        self.version = version
        self.expiry = expiry

    def payload_bytes(self, config) -> int:
        return config.tc_timestamp_bytes + config.line_size


class TCWrAck(Message):
    """Write acknowledgment carrying the GWCT (32-bit).

    ``version`` echoes the acknowledged store (request tag, no wire
    cost) so the L1 pairs the ack correctly under L2 retry reordering.
    """

    kind = "ctrl"
    __slots__ = ("gwct", "version")

    def __init__(self, addr: int, sm: int, gwct: int,
                 version: int = None) -> None:
        self.addr = addr
        self.sm = sm
        self.gwct = gwct
        self.version = version

    def payload_bytes(self, config) -> int:
        return config.tc_timestamp_bytes


class TCAtm(TCWr):
    """Atomic RMW request: the write with the operand word in place of
    the line."""

    __slots__ = ()

    def payload_bytes(self, config) -> int:
        return 8


class TCAtmAck(TCWrAck):
    """Atomic response: the write ack (GWCT) plus the old value."""

    __slots__ = ("old_version",)

    def __init__(self, addr: int, sm: int, old_version: int,
                 gwct: int, version: int = None) -> None:
        super().__init__(addr, sm, gwct, version)
        self.old_version = old_version

    def payload_bytes(self, config) -> int:
        return config.tc_timestamp_bytes + 8


# ---------------------------------------------------------------------------
# L1 controller
# ---------------------------------------------------------------------------

class TCL1Controller(L1ControllerBase):
    """Per-SM L1 under Temporal Coherence."""

    __slots__ = ("cache",)

    # response dispatch by concrete class (same idiom as G-TSC)
    _handler_names = {
        TCFill: "_on_fill",
        TCWrAck: "_on_write_ack",
        TCAtmAck: "_on_write_ack",
    }

    def __init__(self, sm_id: int, machine: "Machine") -> None:
        super().__init__(sm_id, machine)
        config = machine.config
        self.cache = CacheArray(config.l1_sets, config.l1_assoc)

    def load(self, warp: "Warp", addr: int,
             on_done: Callable[[], None]) -> bool:
        counters = self._counters
        counters["l1_access"] += 1
        now = self.engine.now
        cache = self.cache
        slot = cache._where.get(addr)
        if slot is not None:
            cache._tick += 1
            cache._lru[slot] = cache._tick
            line = cache._lines[slot]
            if now < line.expiry:
                counters["l1_hit"] += 1
                self._finish_load(warp, addr, line.version, now, on_done,
                                  hit=True)
                return True

        counters["l1_miss"] += 1
        if slot is not None:
            # tag matched but the lease ran out: the self-invalidation
            # ("coherence") miss that physical time forces on TC
            counters["l1_expired_miss"] += 1
        return self._load_miss(warp, addr, on_done, TCRd)

    def store(self, warp: "Warp", addr: int,
              on_done: Callable[[], None]) -> bool:
        return self._issue_write(warp, addr, on_done, "l1_store", TCWr)

    def atomic(self, warp: "Warp", addr: int,
               on_done: Callable[[], None]) -> bool:
        return self._issue_write(warp, addr, on_done, "l1_atomic", TCAtm)

    def _issue_write(self, warp: "Warp", addr: int,
                     on_done: Callable[[], None], counter: str,
                     request: type) -> bool:
        """Write a store (``TCWr``) or an atomic (``TCAtm``) through to
        the L2 and hold it until its ack."""
        counters = self._counters
        counters["l1_access"] += 1
        counters[counter] += 1
        # write-through, no-write-allocate: drop the (now stale) local
        # copy so this SM's later reads fetch the written value from L2
        self.cache.invalidate(addr)
        version = self._push_write(warp, addr, on_done)
        self._send(request(addr, self.sm_id, version))
        return True

    def _on_fill(self, msg: TCFill) -> None:
        if msg.expiry <= self.engine.now:
            # the lease died in flight (NoC delay): the value was
            # current when the L2 served it, so the waiting loads may
            # still consume it, but the line cannot be cached — the
            # next access will miss again (the cost of a short lease)
            self._counters["l1_dead_on_arrival"] += 1
            if self.trace is not None:
                self.trace.instant(self.engine.now, self.track,
                                   "dead_on_arrival",
                                   {"addr": msg.addr,
                                    "expiry": msg.expiry})
        else:
            line, _evicted = self.cache.allocate(msg.addr)
            if line is not None:
                line.version = msg.version
                line.expiry = msg.expiry
        self._fill_waiters(msg.addr, msg.version)

    def _on_write_ack(self, msg: TCWrAck) -> None:
        """A store's ack, or an atomic's (``TCAtmAck``, which adds the
        old version)."""
        pending = self._pop_write(msg.addr, msg.version)
        # TC-Weak: remember when this write becomes globally visible
        warp = pending.warp
        if msg.gwct > warp.gwct:
            warp.gwct = msg.gwct
        atomic = type(msg) is TCAtmAck
        self._finish_write(pending, msg.old_version if atomic else None)

    def flush(self) -> None:
        self.cache.flush()


# ---------------------------------------------------------------------------
# L2 bank
# ---------------------------------------------------------------------------

class TCL2Bank(L2BankBase):
    """One bank of the shared cache under Temporal Coherence.

    ``line.expiry`` tracks the latest lease end granted on the line.
    Under TC-Strong a write arriving before that time parks, blocks the
    line, and performs exactly at expiry; under TC-Weak it performs
    immediately and the ack carries ``max(now, expiry)`` as the GWCT.
    """

    __slots__ = ("strong", "_blocked", "_tc_lease", "_lease_gate",
                 "_set_lines", "_free_ways", "_where_map", "_set_min")

    _handler_names = {
        TCRd: "_read",
        TCWr: "_write",
        TCAtm: "_write",
    }

    def __init__(self, bank_id: int, machine: "Machine") -> None:
        super().__init__(bank_id, machine)
        self.strong = machine.config.consistency is Consistency.SC
        # lines currently blocked behind a waiting write
        self._blocked: Dict[int, Deque[Message]] = {}
        self._tc_lease = machine.config.tc_lease
        # `now` for the _lease_free eviction predicate, set by
        # _install_fill, so the fill path passes a method rather than
        # a fresh closure
        self._lease_gate = 0
        # per-set line-object views for _retry_fill's raw probe
        cache = self.cache
        lines = cache._lines
        assoc = cache.assoc
        self._set_lines = [lines[s * assoc:(s + 1) * assoc]
                           for s in range(cache.num_sets)]
        self._free_ways = cache._free
        self._where_map = cache._where
        # cached lower bound on each set's minimum lease expiry: while
        # it exceeds `now`, every way is provably still leased and the
        # retry probe is O(1).  Grants only raise slot expiries (the
        # bound stays valid); installs zero the new line's expiry and
        # drop the bound with it; the exact min refreshes the bound
        # whenever the probe computes it anyway.
        self._set_min = [0] * cache.num_sets

    def _lease_free(self, line: CacheLine) -> bool:
        """Eviction predicate: the way's lease has run out by
        ``_lease_gate`` and no write is blocked on it."""
        return (line.expiry <= self._lease_gate
                and line.addr not in self._blocked)

    # -- dispatch ------------------------------------------------------------
    def _process(self, msg: Message) -> None:
        blocked = self._blocked.get(msg.addr)
        if blocked is not None:
            # a write is waiting on this line: everything queues behind
            # it (Section II-D3's lease-induced contention)
            blocked.append(msg)
            self._counters["l2_blocked_requests"] += 1
            return
        self._dispatch(msg)

    def _read(self, msg: TCRd) -> None:
        line = self.cache.lookup(msg.addr)
        if line is None:
            self._miss(msg)
            return
        self._counters["l2_hit"] += 1
        grant = self.engine.now + self._tc_lease
        if grant > line.expiry:
            line.expiry = grant
        self._reply(msg.sm, TCFill(msg.addr, msg.sm, line.version, grant))

    def _write(self, msg: TCWr) -> None:
        """A store, or an atomic (``TCAtm``): an atomic follows the
        store's path and returns the old value.  TC-Strong parks either
        behind the line's unexpired leases; TC-Weak performs it now and
        reports the GWCT, so an atomic's atomicity point is the L2 but
        its global visibility still waits for self-invalidation."""
        line = self.cache.lookup(msg.addr)
        if line is None:
            self._miss(msg)
            return
        self._counters["l2_hit"] += 1
        atomic = type(msg) is TCAtm
        if atomic:
            self._counters["l2_atomics"] += 1
        now = self.engine.now
        if self.strong and now < line.expiry:
            # TC-Strong: wait for every outstanding lease to expire
            self._counters["l2_write_stalls"] += 1
            self._counters["l2_write_stall_cycles"] += line.expiry - now
            if self.trace is not None:
                self.trace.complete(now, line.expiry, self.track,
                                    "atomic_stall" if atomic
                                    else "write_stall", {"addr": msg.addr})
            self._blocked[msg.addr] = deque()
            self.engine.post(line.expiry, self._perform_blocked_write,
                             (msg,))
            return
        self._perform_write(msg, line)

    def _perform_blocked_write(self, msg: TCWr) -> None:
        line = self.cache.lookup(msg.addr)
        if line is None:  # pragma: no cover - lease-pinned, can't evict
            raise RuntimeError("blocked line evicted under inclusion")
        self._perform_write(msg, line)
        # replay everything that queued behind the write, in order
        parked = self._blocked.pop(msg.addr, deque())
        for queued in parked:
            self._process(queued)

    def _perform_write(self, msg: TCWr, line: CacheLine) -> None:
        now = self.engine.now
        expiry = line.expiry
        gwct = expiry if expiry > now else now
        old_version = line.version
        line.version = msg.version
        line.dirty = True
        self.machine.versions.record_wts(msg.addr, msg.version, now)
        if type(msg) is TCAtm:
            ack = TCAtmAck(msg.addr, msg.sm, old_version, gwct,
                           version=msg.version)
        else:
            ack = TCWrAck(msg.addr, msg.sm, gwct, version=msg.version)
        self._reply(msg.sm, ack)

    # -- fill / inclusion -------------------------------------------------------
    def _retry_fill(self, addr: int) -> None:
        """Retry a lease-stalled fill with a raw can-succeed probe.

        Under small presets the inclusive L2 thrashes and a fill can
        stall for many lease periods; going through the full allocate
        path on every retry dominates the run.  The probe answers
        exactly the question ``_install_fill`` would: is there an
        invalid way, or a way whose lease expired and whose address is
        not write-blocked?  Only then is the full install path taken,
        so counters and timing match the naive retry loop bit for bit.
        """
        set_index = addr % self.cache.num_sets
        if not self._free_ways[set_index] \
                and addr not in self._where_map:
            now = self.engine.now
            if self._set_min[set_index] > now:
                pinned = True      # every lease provably still running
            else:
                set_lines = self._set_lines[set_index]
                lease_min = min(map(_expiry_of, set_lines))
                if lease_min > now:
                    # every lease still running; remember the exact min
                    # so the remaining retries of this stall are O(1)
                    self._set_min[set_index] = lease_min
                    pinned = True
                else:
                    # some lease has expired; the way scan decides
                    # whether the expired line is also unblocked
                    blocked = self._blocked
                    pinned = True
                    for line in set_lines:
                        if line.expiry <= now \
                                and line.addr not in blocked:
                            pinned = False
                            break
            if pinned:
                # still pinned: book one stall interval and re-enter.
                # This is the hottest reschedule in TC runs (one event
                # per interval per stalled fill); the grid cannot be
                # skipped ahead because each retry's place in its
                # cycle's FIFO list is part of the bit-identical event
                # order
                self._counters["l2_evict_stall"] += 1
                self.engine.post(now + self._retry_interval,
                                 self._retry_fill, (addr,))
                return
        line = self._install_fill(addr)
        for msg in self.mshr.drain(addr):
            self._process(msg)

    def _install_fill(self, addr: int) -> Optional[CacheLine]:
        self._lease_gate = self.engine.now
        line, evicted = self.cache.allocate(addr, self._lease_free)
        if line is None:
            # every way lease-pinned: the delayed-eviction stall TC's
            # inclusive L2 suffers (Section II-D2)
            return None
        if evicted is not None:
            self._counters["l2_evictions"] += 1
            self._writeback(evicted)
        line.version = self._memory_version(addr)
        line.dirty = False
        line.expiry = 0
        self._set_min[addr % self.cache.num_sets] = 0
        return line
