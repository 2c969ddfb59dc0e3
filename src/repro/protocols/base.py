"""Shared protocol plumbing: messages, controller bases, waiter records.

Every protocol is expressed as a per-SM L1 controller plus a per-bank
L2 controller exchanging messages over the NoC.  The bases here own
the mechanics all protocols share — message sizing and dispatch, the
L2 bank's service pipeline and its miss path to DRAM, and the L1's
load path after the hit test: a miss parks on the line's MSHR entry
(:meth:`L1ControllerBase._load_miss`), a fill drains the entry
(:meth:`L1ControllerBase._fill_waiters`), and every load completes in
:meth:`L1ControllerBase._finish_load`, which books its latency and
access-log record.  The L1 base also keeps the table of stores and
atomics awaiting their acks, and completes them in
:meth:`L1ControllerBase._finish_write`.  Each protocol file keeps only
its hit test, the requests it sends and the replies only it handles.

An atomic is a store that returns the old value.  Every protocol sends
it down its one write path: the atomic request class subclasses the
store request and changes only its size, the atomic ack subclasses the
store ack and adds ``old_version``, and the handlers tell them apart
by exact class (``type(msg)``) only where the names they book differ.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from repro.config import CombiningPolicy
from repro.mem.cache import CacheArray, CacheLine
from repro.mem.mshr import MSHRTable
from repro.validate.versions import AtomicRecord, LoadRecord, StoreRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.machine import Machine
    from repro.gpu.warp import Warp


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------

class Message:
    """Base class for everything that crosses the NoC.

    Concrete messages define :meth:`payload_bytes` (on top of the
    common header) and a traffic ``kind`` ("ctrl" or "data") used by
    the Figure-15 accounting.  ``addr`` is always a line address.
    """

    kind = "ctrl"
    # True when every instance of the class has the same on-wire size,
    # letting the Machine cache the size per class.  Classes whose
    # payload varies per instance (e.g. MESI's InvAck) must set False.
    uniform_size = True

    __slots__ = ("addr", "sm")

    def __init__(self, addr: int, sm: int) -> None:
        self.addr = addr
        self.sm = sm

    def payload_bytes(self, config) -> int:
        """Bytes carried beyond the routing header."""
        return 0

    def size(self, config) -> int:
        """Total on-wire size of the message."""
        return config.noc_header_bytes + self.payload_bytes(config)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} addr={self.addr:#x} sm={self.sm}>"


# ---------------------------------------------------------------------------
# waiter records
# ---------------------------------------------------------------------------

class LoadWaiter:
    """A warp's load parked in an L1 MSHR entry."""

    __slots__ = ("warp", "on_done", "issue_cycle")

    def __init__(self, warp: "Warp", on_done: Callable[[], None],
                 issue_cycle: int) -> None:
        self.warp = warp
        self.on_done = on_done
        self.issue_cycle = issue_cycle


class PendingStore:
    """A store or atomic RMW issued by the SM, awaiting its L2
    acknowledgment (an atomic's carries the old value)."""

    __slots__ = ("warp", "addr", "version", "on_done", "issue_cycle")

    def __init__(self, warp: "Warp", addr: int, version: int,
                 on_done: Callable[[], None], issue_cycle: int) -> None:
        self.warp = warp
        self.addr = addr
        self.version = version
        self.on_done = on_done
        self.issue_cycle = issue_cycle


class _Dispatch:
    """Message dispatch through a table built once per class.

    A controller lists ``_handler_names``, message class -> name of the
    method that handles it.  Every subclass gets ``_handler_table``,
    the same table with each name resolved on that subclass, so an
    override dispatches.  A controller reads the table through its
    ``_handlers`` slot (a slot read is cheaper than a class-attribute
    read on the hot receive path) and calls ``handler(self, msg)``
    through :meth:`_dispatch`.  The table holds functions, not bound
    methods: a per-instance table of bound methods would tie every
    controller into a reference cycle with itself.
    """

    __slots__ = ("_handlers",)

    _handler_names: dict = {}
    _handler_table: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._handler_table = {kind: getattr(cls, name)
                              for kind, name in cls._handler_names.items()}

    def __init__(self) -> None:
        self._handlers = self._handler_table

    def _dispatch(self, msg: Message) -> None:
        """Hand ``msg`` to the method its class maps to."""
        handler = self._handlers.get(type(msg))
        if handler is None:
            raise TypeError(
                f"unexpected message at {type(self).__name__}: {msg!r}")
        handler(self, msg)


# ---------------------------------------------------------------------------
# L1 controller base
# ---------------------------------------------------------------------------

class L1ControllerBase(_Dispatch):
    """Per-SM private-cache controller.

    The SM calls :meth:`load` / :meth:`store` / :meth:`atomic`; each
    returns True when the access was accepted and False when a
    structural hazard (full MSHR) forces the SM to retry later.
    Completion is signalled through the ``on_done`` callback.

    A protocol's :meth:`load` runs its hit test and completes a hit in
    :meth:`_finish_load`; a miss goes to :meth:`_load_miss`, which
    parks it on the line's MSHR entry, and the fill completes the
    entry's loads through :meth:`_fill_waiters`.  A store or atomic
    that waits for the L2's ack sits in ``_pending_writes`` from
    :meth:`_push_write` until :meth:`_pop_write` matches the ack to
    it, and :meth:`_finish_write` books its completion.  Responses
    reach their handlers through ``_handler_names``.
    """

    __slots__ = ("sm_id", "uid", "machine", "config", "engine", "stats",
                 "_counters", "_l1_latency", "_load_hist", "_store_hist",
                 "_atomic_hist", "_num_homes", "_src", "mshr", "_combine",
                 "trace", "audit", "track", "_pending_writes")

    #: whether :meth:`_finish_load` and :meth:`_finish_write` book
    #: ``load_latency``, ``store_latency`` and ``atomic_latency`` (the
    #: plain L1s book none)
    _books_latency = True

    def __init__(self, sm_id: int, machine: "Machine") -> None:
        super().__init__()
        self.sm_id = sm_id
        # the global SM uid requests carry and replies route back by;
        # sm_id itself on one GPU
        self.uid = machine.gpu_id * machine.config.num_sms + sm_id
        self.machine = machine
        self.config = machine.config
        self.engine = machine.engine
        self.stats = machine.stats
        # raw counter mapping for the load/store hot paths
        self._counters = machine.stats.counters
        self._l1_latency = machine.config.l1_latency
        # latency histograms, bound lazily on first sample so that a
        # run's set of existing histograms is unchanged (RunStats
        # equality and the golden fixtures depend on which histograms
        # exist, not just their contents)
        self._load_hist = None
        self._store_hist = None
        self._atomic_hist = None
        # request-routing caches for the inlined _send below: the
        # length of the machine's bank_routes, and the injection port
        # each route's ``via`` picks
        self._num_homes = (machine.config.num_l2_banks
                           * machine.config.n_gpus)
        self._src = (("sm", sm_id), machine.link_port)
        self.mshr = MSHRTable(machine.config.l1_mshr_entries)
        # whether a load that misses on a line already being fetched
        # joins that read (Section V-B's MSHR combining) or sends its own
        self._combine = machine.config.combining is CombiningPolicy.MSHR
        # observability refs, cached once; None keeps the hot paths to
        # a single identity check per instrumentation point
        obs = machine.obs
        self.trace = obs.tracer if obs is not None else None
        self.audit = obs.audit if obs is not None else None
        # unit_prefix is "" single-GPU (audit logs bit-identical to
        # pre-multigpu runs) and "g<i>:" inside a cluster
        self.track = f"{machine.unit_prefix}sm{sm_id}"
        # stores and atomics awaiting their acks, per line in issue
        # order; a line's entry lives only while one is in flight
        self._pending_writes: Dict[int, Deque[PendingStore]] = {}

    # -- SM-facing interface ---------------------------------------------------
    def load(self, warp: "Warp", addr: int,
             on_done: Callable[[], None]) -> bool:
        raise NotImplementedError

    def store(self, warp: "Warp", addr: int,
              on_done: Callable[[], None]) -> bool:
        raise NotImplementedError

    def atomic(self, warp: "Warp", addr: int,
               on_done: Callable[[], None]) -> bool:
        """Issue an atomic RMW (performed at the L2, like real GPUs)."""
        raise NotImplementedError

    #: a response delivered by the NoC goes to its class's handler
    receive = _Dispatch._dispatch

    def flush(self) -> None:
        """Invalidate private state at kernel boundaries."""

    # -- helpers -----------------------------------------------------------------
    def _send(self, msg: Message) -> None:
        """Route a request to the home L2 bank of ``msg.addr``.

        The machine's ``bank_routes`` (see
        :meth:`repro.gpu.machine.Machine.connect`) send it over the
        NoC to a bank of this GPU, or over the inter-GPU link to
        another GPU's.  ``msg.sm`` becomes this SM's global uid, which
        the bank replies to and, under MESI, records as sharer or
        owner.  Every request crosses this method, so the routing is
        written out here rather than behind a machine-level helper,
        whose extra frame showed up in profiles.
        """
        machine = self.machine
        msg.sm = self.uid
        network, via, dst, home, bank = machine.bank_routes[
            msg.addr % self._num_homes]
        size = machine._msg_sizes.get(type(msg))
        if size is None:
            size = machine._size_of(msg)
        network.send(self._src[via], dst, size, msg.kind,
                     home.l2_banks[bank].receive, msg)

    # -- loads -------------------------------------------------------------------
    def _load_miss(self, warp: "Warp", addr: int,
                   on_done: Callable[[], None], request: type,
                   *fields) -> bool:
        """Park a load that missed on ``addr`` in the line's MSHR entry.

        Under MSHR combining a load joins the read already in flight on
        the line.  Otherwise it takes a new entry (under forward-all,
        the line's existing one) and sends ``request(addr, sm_id,
        *fields)``.  When a new entry is needed and the MSHR is full,
        the load is refused: it books ``l1_mshr_stall`` and returns
        False, and the SM retries later.
        """
        now = self.engine.now
        mshr = self.mshr
        entry = mshr.get(addr)
        if entry is None:
            if mshr.full:
                self._counters["l1_mshr_stall"] += 1
                if self.trace is not None:
                    self.trace.instant(now, self.track, "mshr_stall",
                                       {"addr": addr})
                return False
            entry = mshr.allocate(addr)
        elif self._combine:
            entry.waiters.append(LoadWaiter(warp, on_done, now))
            return True
        entry.waiters.append(LoadWaiter(warp, on_done, now))
        self._send(request(addr, self.sm_id, *fields))
        entry.issued = True
        return True

    def _fill_waiters(self, addr: int, version: int) -> None:
        """Complete every load parked on ``addr``'s MSHR entry: each
        reads the filled ``version``."""
        for waiter in self.mshr.drain(addr):
            self._finish_load(waiter.warp, addr, version,
                              waiter.issue_cycle, waiter.on_done,
                              hit=False)

    def _finish_load(self, warp: "Warp", addr: int, version: int,
                     issue_cycle: int, on_done: Callable[[], None],
                     hit: bool, logical_ts: int = 0,
                     epoch: int = 0) -> None:
        """Complete a load that read ``version``: book its latency and
        access-log record, and wake its warp ``l1_latency`` from now on
        a hit, or this cycle on a fill."""
        engine = self.engine
        now = engine.now
        if self._books_latency:
            hist = self._load_hist
            if hist is None:
                hist = self._load_hist = self.stats.hist.get("load_latency")
            hist.add(now - issue_cycle)
        log = self.machine.log
        if log.enabled:    # don't even build the record when disabled
            log.loads.append(LoadRecord(warp.uid, addr, version,
                                        logical_ts, epoch, issue_cycle,
                                        now, hit))
        engine.post(now + self._l1_latency if hit else now, on_done)

    # -- stores and atomics awaiting acks -----------------------------------------
    def _push_write(self, warp: "Warp", addr: int,
                    on_done: Callable[[], None]) -> int:
        """Hold a new store or atomic on ``addr`` until its ack arrives;
        returns the version it writes."""
        version = self.machine.versions.new_version(addr)
        pending = PendingStore(warp, addr, version, on_done,
                               self.engine.now)
        queue = self._pending_writes.get(addr)
        if queue is None:
            queue = self._pending_writes[addr] = deque()
        queue.append(pending)
        return version

    def _pop_write(self, addr: int, version: Optional[int]) -> PendingStore:
        """Take the pending store or atomic an ack answers off the table.

        Acks carry the version of the request they acknowledge (every
        protocol threads it through).  Matching by version matters
        because the L2's MSHR-full retry path re-enters the bank
        pipeline on an independent timer, which can reorder same-line
        requests from one SM — plain FIFO popping would then pair each
        ack with the wrong pending entry, tearing atomic old/new pairs
        and warp timestamp updates.  Falls back to FIFO only when the
        ack carries no version (unit tests that hand-build messages);
        an ack whose version matches no pending entry raises
        ``RuntimeError``.  The line's entry goes with its last request.
        """
        queue = self._pending_writes.get(addr)
        if not queue:
            raise RuntimeError(
                f"ack for line {addr:#x} with no pending store or atomic")
        if version is None:
            pending = queue.popleft()
        else:
            for index, pending in enumerate(queue):
                if pending.version == version:
                    del queue[index]
                    break
            else:
                raise RuntimeError(
                    f"ack for line {addr:#x} carries version {version}, "
                    f"which no pending request on the line holds "
                    f"(pending: {[pending.version for pending in queue]})")
        if not queue:
            del self._pending_writes[addr]
        return pending

    def _on_write_ack(self, msg: Message) -> None:
        """Complete the store an ack answers, or the atomic, whose ack
        also carries the ``old_version`` it read."""
        self._finish_write(self._pop_write(msg.addr, msg.version),
                           getattr(msg, "old_version", None))

    def _finish_write(self, pending: PendingStore,
                      old_version: Optional[int] = None,
                      logical_ts: int = 0, epoch: int = 0,
                      delay: int = 0) -> None:
        """Complete a store, or an atomic that read ``old_version``:
        book its latency and access-log record, and wake its warp
        ``delay`` cycles from now."""
        engine = self.engine
        now = engine.now
        if self._books_latency:
            if old_version is None:
                hist = self._store_hist
                if hist is None:
                    hist = self._store_hist = \
                        self.stats.hist.get("store_latency")
            else:
                hist = self._atomic_hist
                if hist is None:
                    hist = self._atomic_hist = \
                        self.stats.hist.get("atomic_latency")
            hist.add(now - pending.issue_cycle)
        log = self.machine.log
        if log.enabled:    # don't even build the record when disabled
            if old_version is None:
                log.stores.append(StoreRecord(
                    pending.warp.uid, pending.addr, pending.version,
                    logical_ts, epoch, pending.issue_cycle, now))
            else:
                log.atomics.append(AtomicRecord(
                    pending.warp.uid, pending.addr, old_version,
                    pending.version, logical_ts, epoch,
                    pending.issue_cycle, now))
        engine.post(now + delay, pending.on_done)


# ---------------------------------------------------------------------------
# L2 bank base
# ---------------------------------------------------------------------------

class L2BankBase(_Dispatch):
    """One bank of the shared L2 cache.

    Owns the tag array, the bank's service pipeline (requests occupy
    the bank for ``l2_service`` cycles and complete an access
    ``l2_latency`` later), and the miss path to the bank's DRAM
    partition.  :meth:`_process` hands each request that leaves the
    pipeline to its class's handler in ``_handler_names``; subclasses
    write those handlers (the protocol state machine) plus the
    fill/eviction hooks.
    """

    __slots__ = ("bank_id", "machine", "config", "engine", "stats",
                 "_counters", "_src", "cache", "mshr", "dram", "_ready_at",
                 "_l2_service", "_l2_latency", "_retry_interval",
                 "trace", "audit", "track")

    def __init__(self, bank_id: int, machine: "Machine") -> None:
        super().__init__()
        self.bank_id = bank_id
        self.machine = machine
        self.config = machine.config
        self.engine = machine.engine
        self.stats = machine.stats
        self._counters = machine.stats.counters
        self._l2_service = machine.config.l2_service
        self._l2_latency = machine.config.l2_latency
        self._retry_interval = machine.config.mshr_retry_interval
        self._src = (("l2", bank_id), machine.link_port)
        self.cache = CacheArray(machine.config.l2_sets,
                                machine.config.l2_assoc)
        self.mshr = MSHRTable(machine.config.l2_mshr_entries)
        self.dram = machine.drams[bank_id]
        self._ready_at = 0
        obs = machine.obs
        self.trace = obs.tracer if obs is not None else None
        self.audit = obs.audit if obs is not None else None
        self.track = f"{machine.unit_prefix}l2b{bank_id}"

    # -- arrival / pipeline --------------------------------------------------
    def receive(self, msg: Message) -> None:
        """A request arrived from the NoC; enter the bank pipeline."""
        self._counters["l2_access"] += 1
        engine = self.engine
        now = engine.now
        ready = self._ready_at
        start = ready if ready > now else now
        self._ready_at = start + self._l2_service
        engine.post(start + self._l2_latency, self._process, (msg,))

    #: a request leaving the pipeline goes to its class's handler
    _process = _Dispatch._dispatch

    # -- miss path ----------------------------------------------------------------
    def _miss(self, msg: Message) -> None:
        """Park ``msg`` on the line's MSHR entry and fetch from DRAM.

        When the MSHR is full the message is retried through the bank
        pipeline after a back-off, modelling input-queue pressure.
        """
        self._counters["l2_miss"] += 1
        mshr = self.mshr
        entry = mshr.get(msg.addr)
        if entry is None:
            if mshr.full:
                # checked, not raised: MSHRFullError per stalled access
                # was measurable in profiles under the small presets
                self._counters["l2_mshr_stall"] += 1
                self.engine.schedule(self._retry_interval,
                                     self.receive, msg)
                return
            entry = mshr.allocate(msg.addr)
        entry.waiters.append(msg)
        if not entry.issued:
            entry.issued = True
            self.dram.read(msg.addr, self._dram_fill, msg.addr)

    def _dram_fill(self, addr: int) -> None:
        """Data returned from DRAM: install the line, replay waiters."""
        line = self._install_fill(addr)
        if line is None:
            # replacement stalled (TC inclusion): try again shortly
            self._fill_stalled(addr)
            return
        for msg in self.mshr.drain(addr):
            self._process(msg)

    def _fill_stalled(self, addr: int) -> None:
        """Book a retry for a fill whose replacement stalled.

        One ``l2_evict_stall`` count per retry interval spent waiting.
        Protocols that can bound when the stall clears (TC's leases)
        override this to book several intervals at once.
        """
        self._counters["l2_evict_stall"] += 1
        self.engine.schedule(self._retry_interval, self._retry_fill, addr)

    def _retry_fill(self, addr: int) -> None:
        """Retry a stalled fill.

        Identical to :meth:`_dram_fill` by default; protocols whose
        installs can stall repeatedly (TC's lease-pinned inclusive L2)
        override this with a cheap can-it-succeed probe so the retry
        storm does not pay the full allocate path on every attempt.
        """
        self._dram_fill(addr)

    def _install_fill(self, addr: int) -> Optional[CacheLine]:
        """Install a DRAM fill; protocol chooses victims and metadata."""
        raise NotImplementedError

    # -- eviction helpers -------------------------------------------------------
    def _writeback(self, evicted: CacheLine) -> None:
        """Write a dirty victim to memory and update the memory image."""
        if evicted.dirty:
            self.machine.memory_image[evicted.addr] = evicted.version
            self.dram.write(evicted.addr)

    def _memory_version(self, addr: int) -> int:
        """The version currently held by DRAM for ``addr``."""
        return self.machine.memory_image.get(addr, 0)

    # -- response path -----------------------------------------------------------
    def _reply(self, sm_uid: int, msg: Message) -> None:
        # route back to the requesting SM by its global uid, through
        # the machine's sm_routes (see L1ControllerBase._send)
        machine = self.machine
        network, via, dst, target, sm_id = machine.sm_routes[sm_uid]
        size = machine._msg_sizes.get(type(msg))
        if size is None:
            size = machine._size_of(msg)
        network.send(self._src[via], dst, size, msg.kind,
                     target.l1s[sm_id].receive, msg)
