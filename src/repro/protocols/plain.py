"""The two non-protocol baselines of the evaluation.

* :class:`DisabledL1Controller` — the paper's coherent baseline (BL):
  the L1 is turned off and every access crosses the NoC to the shared
  L2, which is trivially coherent.  No L1 tags are checked and no L1
  MSHRs are combined, matching the paper's description of its BL
  implementation (Section VI-A).

* :class:`NonCoherentL1Controller` — "Baseline W/L1" in Figure 12: a
  plain write-through L1 with no coherence actions at all.  Only
  meaningful for workloads that do not need coherence.

Both sit on top of :class:`PlainL2Bank`, a protocol-free shared cache.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from repro.mem.cache import CacheArray, CacheLine
from repro.protocols.base import (
    L1ControllerBase,
    L2BankBase,
    LoadWaiter,
    Message,
    PendingStore,
    pop_pending,
)
from repro.validate.versions import AtomicRecord, LoadRecord, StoreRecord


class _AtomicMixin:
    """Shared atomic plumbing for the two baseline L1 controllers:
    forward the RMW to the L2 (invalidating any local copy) and match
    responses per line, by version (see :func:`pop_pending`).  A
    line's queue is dropped once its last atomic is acknowledged."""

    __slots__ = ()

    def _init_atomics(self) -> None:
        self._pending_atomics: Dict[int, Deque[PendingStore]] = {}

    def atomic(self, warp, addr: int,
               on_done: Callable[[], None]) -> bool:
        cache = getattr(self, "cache", None)
        if cache is not None:
            counters = self._counters
            counters["l1_access"] += 1
            counters["l1_atomic"] += 1
            cache.invalidate(addr)
        version = self.machine.versions.new_version(addr)
        pending = PendingStore(warp, addr, version, on_done,
                               self.engine.now)
        queue = self._pending_atomics.get(addr)
        if queue is None:
            queue = self._pending_atomics[addr] = deque()
        queue.append(pending)
        self._send(MemAtm(addr, self.sm_id, version))
        return True

    def _on_atomic_ack(self, msg: "MemAtmAck") -> None:
        queue = self._pending_atomics[msg.addr]
        pending = pop_pending(queue, msg.version)
        if not queue:
            del self._pending_atomics[msg.addr]
        log = self.machine.log
        if log.enabled:
            log.atomics.append(AtomicRecord(
                warp_uid=pending.warp.uid,
                addr=msg.addr,
                old_version=msg.old_version,
                new_version=pending.version,
                logical_ts=0,
                epoch=0,
                issue_cycle=pending.issue_cycle,
                complete_cycle=self.engine.now,
            ))
        engine = self.engine
        engine.post(engine.now, pending.on_done)

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.machine import Machine
    from repro.gpu.warp import Warp


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------

class MemRd(Message):
    kind = "ctrl"
    __slots__ = ()


class MemWr(Message):
    kind = "data"
    __slots__ = ("version",)

    def __init__(self, addr: int, sm: int, version: int) -> None:
        self.addr = addr
        self.sm = sm
        self.version = version

    def payload_bytes(self, config) -> int:
        return config.line_size


class MemFill(Message):
    kind = "data"
    __slots__ = ("version",)

    def __init__(self, addr: int, sm: int, version: int) -> None:
        self.addr = addr
        self.sm = sm
        self.version = version

    def payload_bytes(self, config) -> int:
        return config.line_size


class MemAck(Message):
    kind = "ctrl"
    __slots__ = ("version",)

    def __init__(self, addr: int, sm: int, version: int = None) -> None:
        self.addr = addr
        self.sm = sm
        self.version = version


class MemAtm(Message):
    kind = "data"
    __slots__ = ("version",)

    def __init__(self, addr: int, sm: int, version: int) -> None:
        self.addr = addr
        self.sm = sm
        self.version = version

    def payload_bytes(self, config) -> int:
        return 8


class MemAtmAck(Message):
    kind = "ctrl"
    __slots__ = ("old_version", "version")

    def __init__(self, addr: int, sm: int, old_version: int,
                 version: int = None) -> None:
        self.addr = addr
        self.sm = sm
        self.old_version = old_version
        self.version = version

    def payload_bytes(self, config) -> int:
        return 8


# ---------------------------------------------------------------------------
# BL: L1 disabled
# ---------------------------------------------------------------------------

class DisabledL1Controller(_AtomicMixin, L1ControllerBase):
    """Coherence by construction: every access goes straight to L2.

    With no cache, the only state is the requests in flight: per line,
    a FIFO of loads awaiting their fill and queues of stores and
    atomics awaiting their acks.  A line's entry exists only while it
    has a request in flight, so a run ends with all three tables empty
    however many lines it touched.
    """

    __slots__ = ("_load_waiters", "_pending_stores", "_pending_atomics")

    def __init__(self, sm_id: int, machine: "Machine") -> None:
        super().__init__(sm_id, machine)
        # fills carry no request tag, so each one completes the line's
        # oldest waiting load; stores and atomics match their acks by
        # version (pop_pending)
        self._load_waiters: Dict[int, Deque[LoadWaiter]] = {}
        self._pending_stores: Dict[int, Deque[PendingStore]] = {}
        self._init_atomics()

    def load(self, warp: "Warp", addr: int,
             on_done: Callable[[], None]) -> bool:
        waiter = LoadWaiter(warp, on_done, self.engine.now)
        queue = self._load_waiters.get(addr)
        if queue is None:
            queue = self._load_waiters[addr] = deque()
        queue.append(waiter)
        self._send(MemRd(addr, self.sm_id))
        return True

    def store(self, warp: "Warp", addr: int,
              on_done: Callable[[], None]) -> bool:
        version = self.machine.versions.new_version(addr)
        pending = PendingStore(warp, addr, version, on_done,
                               self.engine.now)
        queue = self._pending_stores.get(addr)
        if queue is None:
            queue = self._pending_stores[addr] = deque()
        queue.append(pending)
        self._send(MemWr(addr, self.sm_id, version))
        return True

    def receive(self, msg: Message) -> None:
        cls = type(msg)
        if cls is MemFill:
            queue = self._load_waiters[msg.addr]
            waiter = queue.popleft()
            if not queue:
                del self._load_waiters[msg.addr]
            log = self.machine.log
            if log.enabled:
                log.loads.append(LoadRecord(
                    warp_uid=waiter.warp.uid,
                    addr=msg.addr,
                    version=msg.version,
                    logical_ts=0,
                    epoch=0,
                    issue_cycle=waiter.issue_cycle,
                    complete_cycle=self.engine.now,
                    l1_hit=False,
                ))
            engine = self.engine
            engine.post(engine.now, waiter.on_done)
        elif cls is MemAck:
            queue = self._pending_stores[msg.addr]
            pending = pop_pending(queue, msg.version)
            if not queue:
                del self._pending_stores[msg.addr]
            log = self.machine.log
            if log.enabled:
                log.stores.append(StoreRecord(
                    warp_uid=pending.warp.uid,
                    addr=msg.addr,
                    version=pending.version,
                    logical_ts=0,
                    epoch=0,
                    issue_cycle=pending.issue_cycle,
                    complete_cycle=self.engine.now,
                ))
            engine = self.engine
            engine.post(engine.now, pending.on_done)
        elif cls is MemAtmAck:
            self._on_atomic_ack(msg)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message at BL L1: {msg!r}")


# ---------------------------------------------------------------------------
# Baseline W/L1: non-coherent private cache
# ---------------------------------------------------------------------------

class NonCoherentL1Controller(_AtomicMixin, L1ControllerBase):
    """Write-through L1 with no coherence actions whatsoever."""

    __slots__ = ("cache", "_pending_stores", "_pending_atomics")

    def __init__(self, sm_id: int, machine: "Machine") -> None:
        super().__init__(sm_id, machine)
        config = machine.config
        self.cache = CacheArray(config.l1_sets, config.l1_assoc)
        self._pending_stores: Dict[int, Deque[PendingStore]] = {}
        self._init_atomics()

    def load(self, warp: "Warp", addr: int,
             on_done: Callable[[], None]) -> bool:
        counters = self._counters
        counters["l1_access"] += 1
        line = self.cache.lookup(addr)
        if line is not None:
            counters["l1_hit"] += 1
            log = self.machine.log
            if log.enabled:
                log.loads.append(LoadRecord(
                    warp_uid=warp.uid, addr=addr, version=line.version,
                    logical_ts=0, epoch=0, issue_cycle=self.engine.now,
                    complete_cycle=self.engine.now, l1_hit=True,
                ))
            engine = self.engine
            engine.post(engine.now + self._l1_latency, on_done)
            return True
        counters["l1_miss"] += 1
        entry = self.mshr.get(addr)
        if entry is not None:
            entry.waiters.append(LoadWaiter(warp, on_done, self.engine.now))
            return True
        if self.mshr.full:
            counters["l1_mshr_stall"] += 1
            return False
        entry = self.mshr.allocate(addr)
        entry.waiters.append(LoadWaiter(warp, on_done, self.engine.now))
        self._send(MemRd(addr, self.sm_id))
        entry.issued = True
        return True

    def store(self, warp: "Warp", addr: int,
              on_done: Callable[[], None]) -> bool:
        counters = self._counters
        counters["l1_access"] += 1
        counters["l1_store"] += 1
        version = self.machine.versions.new_version(addr)
        line = self.cache.lookup(addr)
        if line is not None:
            # keep the local copy fresh so this SM sees its own writes
            line.version = version
        pending = PendingStore(warp, addr, version, on_done,
                               self.engine.now)
        queue = self._pending_stores.get(addr)
        if queue is None:
            queue = self._pending_stores[addr] = deque()
        queue.append(pending)
        self._send(MemWr(addr, self.sm_id, version))
        return True

    def receive(self, msg: Message) -> None:
        cls = type(msg)
        if cls is MemFill:
            line, _evicted = self.cache.allocate(msg.addr)
            if line is not None:
                line.version = msg.version
            log = self.machine.log
            engine = self.engine
            for waiter in self.mshr.drain(msg.addr):
                if log.enabled:
                    log.loads.append(LoadRecord(
                        warp_uid=waiter.warp.uid, addr=msg.addr,
                        version=msg.version, logical_ts=0, epoch=0,
                        issue_cycle=waiter.issue_cycle,
                        complete_cycle=engine.now, l1_hit=False,
                    ))
                engine.post(engine.now, waiter.on_done)
        elif cls is MemAck:
            queue = self._pending_stores[msg.addr]
            pending = pop_pending(queue, msg.version)
            if not queue:
                del self._pending_stores[msg.addr]
            log = self.machine.log
            if log.enabled:
                log.stores.append(StoreRecord(
                    warp_uid=pending.warp.uid, addr=msg.addr,
                    version=pending.version, logical_ts=0, epoch=0,
                    issue_cycle=pending.issue_cycle,
                    complete_cycle=self.engine.now,
                ))
            engine = self.engine
            engine.post(engine.now, pending.on_done)
        elif cls is MemAtmAck:
            self._on_atomic_ack(msg)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message at non-coherent L1: {msg!r}")

    def flush(self) -> None:
        self.cache.flush()


# ---------------------------------------------------------------------------
# protocol-free shared cache
# ---------------------------------------------------------------------------

class PlainL2Bank(L2BankBase):
    """Shared L2 with no coherence metadata (serves both baselines)."""

    __slots__ = ()

    def _process(self, msg: Message) -> None:
        line = self.cache.lookup(msg.addr)
        if line is None:
            self._miss(msg)
            return
        self._counters["l2_hit"] += 1
        cls = type(msg)
        if cls is MemRd:
            self._reply(msg.sm, MemFill(msg.addr, msg.sm, line.version))
        elif cls is MemWr:
            line.version = msg.version
            line.dirty = True
            self.machine.versions.record_wts(msg.addr, msg.version,
                                             self.engine.now)
            self._reply(msg.sm, MemAck(msg.addr, msg.sm,
                                       version=msg.version))
        elif cls is MemAtm:
            self._counters["l2_atomics"] += 1
            old_version = line.version
            line.version = msg.version
            line.dirty = True
            self.machine.versions.record_wts(msg.addr, msg.version,
                                             self.engine.now)
            self._reply(msg.sm, MemAtmAck(msg.addr, msg.sm, old_version,
                                          version=msg.version))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message at plain L2: {msg!r}")

    def _install_fill(self, addr: int) -> Optional[CacheLine]:
        line, evicted = self.cache.allocate(addr)
        if line is None:  # pragma: no cover - nothing pins plain lines
            return None
        if evicted is not None:
            self._counters["l2_evictions"] += 1
            self._writeback(evicted)
        line.version = self._memory_version(addr)
        line.dirty = False
        return line
