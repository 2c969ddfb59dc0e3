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
from heapq import heappush
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from repro.config import CombiningPolicy, Consistency
from repro.mem.cache import CacheArray, CacheLine
from repro.protocols.base import (
    L1ControllerBase,
    L2BankBase,
    LoadWaiter,
    Message,
    PendingAtomic,
    PendingStore,
    pop_pending,
)
from repro.validate.versions import AtomicRecord, LoadRecord, StoreRecord

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


class TCAtm(Message):
    """Atomic RMW request (operand word only)."""

    kind = "data"
    __slots__ = ("version",)

    def __init__(self, addr: int, sm: int, version: int) -> None:
        self.addr = addr
        self.sm = sm
        self.version = version

    def payload_bytes(self, config) -> int:
        return 8


class TCAtmAck(Message):
    """Atomic response: old value plus GWCT."""

    kind = "ctrl"
    __slots__ = ("old_version", "gwct", "version")

    def __init__(self, addr: int, sm: int, old_version: int,
                 gwct: int, version: int = None) -> None:
        self.addr = addr
        self.sm = sm
        self.old_version = old_version
        self.gwct = gwct
        self.version = version

    def payload_bytes(self, config) -> int:
        return config.tc_timestamp_bytes + 8


# ---------------------------------------------------------------------------
# L1 controller
# ---------------------------------------------------------------------------

class TCL1Controller(L1ControllerBase):
    """Per-SM L1 under Temporal Coherence."""

    __slots__ = ("cache", "_pending_stores", "_pending_atomics",
                 "_handlers", "_combine")

    def __init__(self, sm_id: int, machine: "Machine") -> None:
        super().__init__(sm_id, machine)
        config = machine.config
        self.cache = CacheArray(config.l1_sets, config.l1_assoc)
        self._pending_stores: Dict[int, Deque[PendingStore]] = {}
        self._pending_atomics: Dict[int, Deque[PendingAtomic]] = {}
        # response dispatch by concrete class (same idiom as G-TSC)
        self._handlers = {
            TCFill: self._on_fill,
            TCWrAck: self._on_write_ack,
            TCAtmAck: self._on_atomic_ack,
        }
        self._combine = config.combining is CombiningPolicy.MSHR

    def load(self, warp: "Warp", addr: int,
             on_done: Callable[[], None]) -> bool:
        counters = self._counters
        counters["l1_access"] += 1
        engine = self.engine
        now = engine.now
        cache = self.cache
        slot = cache._where.get(addr)
        if slot is not None:
            cache._tick += 1
            cache._lru[slot] = cache._tick
            line = cache._lines[slot]
            if now < line.expiry:
                counters["l1_hit"] += 1
                self._record_load(warp, addr, line.version, now, hit=True)
                # Engine.post, inlined (one completion per L1 hit)
                time = now + self._l1_latency
                seq = engine._seq
                engine._seq = seq + 1
                event = [time, seq, on_done, ()]
                if time < engine._limit:
                    bucket = time & engine._mask
                    engine._buckets[bucket].append(event)
                    engine._filled[bucket] = 1
                else:
                    heappush(engine._heap, event)
                    engine.heap_deferred += 1
                return True

        counters["l1_miss"] += 1
        if slot is not None:
            # tag matched but the lease ran out: the self-invalidation
            # ("coherence") miss that physical time forces on TC
            counters["l1_expired_miss"] += 1

        waiter = LoadWaiter(warp, on_done, now)
        entry = self.mshr.get(addr)
        if entry is not None and self._combine:
            entry.waiters.append(waiter)
            return True
        if entry is None:
            if self.mshr.full:
                counters["l1_mshr_stall"] += 1
                return False
            entry = self.mshr.allocate(addr)
        entry.waiters.append(waiter)
        self._send(TCRd(addr, self.sm_id))
        entry.issued = True
        return True

    def store(self, warp: "Warp", addr: int,
              on_done: Callable[[], None]) -> bool:
        counters = self._counters
        counters["l1_access"] += 1
        counters["l1_store"] += 1
        version = self.machine.versions.new_version(addr)
        # write-through, no-write-allocate: drop the (now stale) local
        # copy so this SM's later reads fetch the written value from L2
        self.cache.invalidate(addr)
        pending = PendingStore(warp, addr, version, on_done,
                               self.engine.now)
        queue = self._pending_stores.get(addr)
        if queue is None:
            queue = self._pending_stores[addr] = deque()
        queue.append(pending)
        self._send(TCWr(addr, self.sm_id, version))
        return True

    def atomic(self, warp: "Warp", addr: int,
               on_done: Callable[[], None]) -> bool:
        counters = self._counters
        counters["l1_access"] += 1
        counters["l1_atomic"] += 1
        version = self.machine.versions.new_version(addr)
        # like stores: performed at L2, local copy dropped
        self.cache.invalidate(addr)
        pending = PendingAtomic(warp, addr, version, on_done,
                                self.engine.now)
        queue = self._pending_atomics.get(addr)
        if queue is None:
            queue = self._pending_atomics[addr] = deque()
        queue.append(pending)
        self._send(TCAtm(addr, self.sm_id, version))
        return True

    def receive(self, msg: Message) -> None:
        handler = self._handlers.get(type(msg))
        if handler is None:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message at TC L1: {msg!r}")
        handler(msg)

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
        engine = self.engine
        now = engine.now
        for waiter in self.mshr.drain(msg.addr):
            self._record_load(waiter.warp, msg.addr, msg.version,
                              waiter.issue_cycle, hit=False)
            engine.post(now, waiter.on_done)

    def _on_write_ack(self, msg: TCWrAck) -> None:
        queue = self._pending_stores.get(msg.addr)
        if not queue:  # pragma: no cover - defensive
            raise RuntimeError(f"write ack with no pending store: {msg!r}")
        pending = pop_pending(queue, msg.version)
        if not queue:
            self._pending_stores.pop(msg.addr, None)
        # TC-Weak: remember when this write becomes globally visible
        warp = pending.warp
        if msg.gwct > warp.gwct:
            warp.gwct = msg.gwct
        now = self.engine.now
        hist = self._store_hist
        if hist is None:
            hist = self._store_hist = self.stats.hist.get("store_latency")
        hist.add(now - pending.issue_cycle)
        log = self.machine.log
        if log.enabled:
            log.stores.append(StoreRecord(
                warp_uid=warp.uid,
                addr=msg.addr,
                version=pending.version,
                logical_ts=0,
                epoch=0,
                issue_cycle=pending.issue_cycle,
                complete_cycle=now,
            ))
        self.engine.post(now, pending.on_done)

    def _on_atomic_ack(self, msg: TCAtmAck) -> None:
        queue = self._pending_atomics.get(msg.addr)
        if not queue:  # pragma: no cover - defensive
            raise RuntimeError(f"atomic ack with no pending RMW: {msg!r}")
        pending = pop_pending(queue, msg.version)
        if not queue:
            self._pending_atomics.pop(msg.addr, None)
        warp = pending.warp
        if msg.gwct > warp.gwct:
            warp.gwct = msg.gwct
        now = self.engine.now
        hist = self._atomic_hist
        if hist is None:
            hist = self._atomic_hist = self.stats.hist.get("atomic_latency")
        hist.add(now - pending.issue_cycle)
        log = self.machine.log
        if log.enabled:
            log.atomics.append(AtomicRecord(
                warp_uid=warp.uid,
                addr=msg.addr,
                old_version=msg.old_version,
                new_version=pending.version,
                logical_ts=0,
                epoch=0,
                issue_cycle=pending.issue_cycle,
                complete_cycle=now,
            ))
        self.engine.post(now, pending.on_done)

    def flush(self) -> None:
        self.cache.flush()

    def _record_load(self, warp: "Warp", addr: int, version: int,
                     issue_cycle: int, hit: bool) -> None:
        now = self.engine.now
        hist = self._load_hist
        if hist is None:
            hist = self._load_hist = self.stats.hist.get("load_latency")
        hist.add(now - issue_cycle)
        log = self.machine.log
        if log.enabled:
            log.loads.append(LoadRecord(
                warp_uid=warp.uid,
                addr=addr,
                version=version,
                logical_ts=0,
                epoch=0,
                issue_cycle=issue_cycle,
                complete_cycle=now,
                l1_hit=hit,
            ))


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

    __slots__ = ("strong", "_blocked", "_handlers", "_tc_lease",
                 "_lease_gate", "_lease_free", "_set_lines", "_free_ways",
                 "_where_map", "_set_min")

    def __init__(self, bank_id: int, machine: "Machine") -> None:
        super().__init__(bank_id, machine)
        self.strong = machine.config.consistency is Consistency.SC
        # lines currently blocked behind a waiting write
        self._blocked: Dict[int, Deque[Message]] = {}
        self._handlers = {
            TCRd: self._read,
            TCWr: self._write,
            TCAtm: self._atomic,
        }
        self._tc_lease = machine.config.tc_lease
        # prebound eviction predicate for _install_fill: the inclusive
        # L2 thrashes under small presets, so the fill path must not
        # allocate a closure per attempt (_lease_gate carries `now`)
        self._lease_gate = 0
        self._lease_free = self._lease_expired_and_unblocked
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

    def _lease_expired_and_unblocked(self, line: CacheLine) -> bool:
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
        handler = self._handlers.get(type(msg))
        if handler is None:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message at TC L2: {msg!r}")
        handler(msg)

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
        line = self.cache.lookup(msg.addr)
        if line is None:
            self._miss(msg)
            return
        self._counters["l2_hit"] += 1
        now = self.engine.now
        if self.strong and now < line.expiry:
            # TC-Strong: wait for every outstanding lease to expire
            self._counters["l2_write_stalls"] += 1
            self._counters["l2_write_stall_cycles"] += line.expiry - now
            if self.trace is not None:
                self.trace.complete(now, line.expiry, self.track,
                                    "write_stall", {"addr": msg.addr})
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
        line.version = msg.version
        line.dirty = True
        self.machine.versions.record_wts(msg.addr, msg.version, now)
        self._reply(msg.sm, TCWrAck(msg.addr, msg.sm, gwct,
                                    version=msg.version))

    def _atomic(self, msg: TCAtm) -> None:
        """Atomic RMW: follows the write path, returning the old value.

        TC-Strong parks the atomic behind unexpired leases exactly
        like a store; TC-Weak performs it immediately and reports the
        GWCT, so the atomicity point is the L2 but global visibility
        still waits for self-invalidation.
        """
        line = self.cache.lookup(msg.addr)
        if line is None:
            self._miss(msg)
            return
        self._counters["l2_hit"] += 1
        self._counters["l2_atomics"] += 1
        now = self.engine.now
        if self.strong and now < line.expiry:
            self._counters["l2_write_stalls"] += 1
            self._counters["l2_write_stall_cycles"] += line.expiry - now
            if self.trace is not None:
                self.trace.complete(now, line.expiry, self.track,
                                    "atomic_stall", {"addr": msg.addr})
            self._blocked[msg.addr] = deque()
            self.engine.post(line.expiry, self._perform_blocked_atomic,
                             (msg,))
            return
        self._perform_atomic(msg, line)

    def _perform_blocked_atomic(self, msg: TCAtm) -> None:
        line = self.cache.lookup(msg.addr)
        if line is None:  # pragma: no cover - lease-pinned, can't evict
            raise RuntimeError("blocked line evicted under inclusion")
        self._perform_atomic(msg, line)
        parked = self._blocked.pop(msg.addr, deque())
        for queued in parked:
            self._process(queued)

    def _perform_atomic(self, msg: TCAtm, line: CacheLine) -> None:
        now = self.engine.now
        expiry = line.expiry
        gwct = expiry if expiry > now else now
        old_version = line.version
        line.version = msg.version
        line.dirty = True
        self.machine.versions.record_wts(msg.addr, msg.version, now)
        self._reply(msg.sm, TCAtmAck(msg.addr, msg.sm, old_version, gwct,
                                     version=msg.version))

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
                # engine.schedule, inlined — this is the hottest
                # reschedule in TC runs (one event per interval per
                # stalled fill; the grid cannot be skipped ahead
                # because each retry's slot in its cycle's FIFO bucket
                # is part of the bit-identical event order)
                self._counters["l2_evict_stall"] += 1
                engine = self.engine
                time = now + self._retry_interval
                seq = engine._seq
                engine._seq = seq + 1
                event = [time, seq, self._retry_fill, (addr,)]
                if time < engine._limit:
                    slot = time & engine._mask
                    engine._buckets[slot].append(event)
                    engine._filled[slot] = 1
                else:
                    heappush(engine._heap, event)
                    engine.heap_deferred += 1
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
