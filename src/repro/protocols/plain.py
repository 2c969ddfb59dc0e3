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
)
from repro.validate.versions import LoadRecord

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


class MemAtm(MemWr):
    """Atomic RMW request: the write with the operand word in place of
    the line."""

    __slots__ = ()

    def payload_bytes(self, config) -> int:
        return 8


class MemAtmAck(MemAck):
    """Atomic response: the write ack plus the old value."""

    __slots__ = ("old_version",)

    def __init__(self, addr: int, sm: int, old_version: int,
                 version: int = None) -> None:
        super().__init__(addr, sm, version)
        self.old_version = old_version

    def payload_bytes(self, config) -> int:
        return 8


# ---------------------------------------------------------------------------
# BL: L1 disabled
# ---------------------------------------------------------------------------

class DisabledL1Controller(L1ControllerBase):
    """Coherence by construction: every access goes straight to L2.

    With no cache, the only state is the requests in flight: per line,
    a FIFO of loads awaiting their fill, and the base's queue of stores
    and atomics awaiting their acks.  A line's entry exists only while
    it has a request in flight, so a run ends with both tables empty
    however many lines it touched.
    """

    __slots__ = ("_load_waiters",)

    _books_write_latency = False

    def __init__(self, sm_id: int, machine: "Machine") -> None:
        super().__init__(sm_id, machine)
        # fills carry no request tag, so each one completes the line's
        # oldest waiting load; stores and atomics match their acks by
        # version (_pop_write)
        self._load_waiters: Dict[int, Deque[LoadWaiter]] = {}

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
        return self._issue_write(warp, addr, on_done, MemWr)

    def atomic(self, warp: "Warp", addr: int,
               on_done: Callable[[], None]) -> bool:
        return self._issue_write(warp, addr, on_done, MemAtm)

    def _issue_write(self, warp: "Warp", addr: int,
                     on_done: Callable[[], None], request: type) -> bool:
        """Send a store (``MemWr``) or an atomic (``MemAtm``) to the L2
        and hold it until its ack."""
        version = self._push_write(warp, addr, on_done)
        self._send(request(addr, self.sm_id, version))
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
            self._finish_write(self._pop_write(msg.addr, msg.version))
        elif cls is MemAtmAck:
            self._finish_write(self._pop_write(msg.addr, msg.version),
                               msg.old_version)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message at BL L1: {msg!r}")


# ---------------------------------------------------------------------------
# Baseline W/L1: non-coherent private cache
# ---------------------------------------------------------------------------

class NonCoherentL1Controller(L1ControllerBase):
    """Write-through L1 with no coherence actions whatsoever."""

    __slots__ = ("cache",)

    _books_write_latency = False

    def __init__(self, sm_id: int, machine: "Machine") -> None:
        super().__init__(sm_id, machine)
        config = machine.config
        self.cache = CacheArray(config.l1_sets, config.l1_assoc)

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
        version = self._push_write(warp, addr, on_done)
        line = self.cache.lookup(addr)
        if line is not None:
            # keep the local copy fresh so this SM sees its own writes
            line.version = version
        self._send(MemWr(addr, self.sm_id, version))
        return True

    def atomic(self, warp: "Warp", addr: int,
               on_done: Callable[[], None]) -> bool:
        counters = self._counters
        counters["l1_access"] += 1
        counters["l1_atomic"] += 1
        # performed at the L2: drop the local copy
        self.cache.invalidate(addr)
        version = self._push_write(warp, addr, on_done)
        self._send(MemAtm(addr, self.sm_id, version))
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
            self._finish_write(self._pop_write(msg.addr, msg.version))
        elif cls is MemAtmAck:
            self._finish_write(self._pop_write(msg.addr, msg.version),
                               msg.old_version)
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
        elif cls is MemWr or cls is MemAtm:
            # an atomic is the write that also returns the old version
            old_version = line.version
            line.version = msg.version
            line.dirty = True
            self.machine.versions.record_wts(msg.addr, msg.version,
                                             self.engine.now)
            if cls is MemAtm:
                self._counters["l2_atomics"] += 1
                ack = MemAtmAck(msg.addr, msg.sm, old_version,
                                version=msg.version)
            else:
                ack = MemAck(msg.addr, msg.sm, version=msg.version)
            self._reply(msg.sm, ack)
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
