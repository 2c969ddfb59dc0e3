"""Shared protocol plumbing: messages, controller bases, waiter records.

Every protocol is expressed as a per-SM L1 controller plus a per-bank
L2 controller exchanging messages over the NoC.  The bases here own
the mechanics all protocols share — message sizing, the L2 bank's
service pipeline, the miss path to DRAM — so each protocol file only
contains its actual state machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.mem.cache import CacheArray, CacheLine
from repro.mem.mshr import MSHRTable

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


def pop_pending(queue, version: Optional[int]):
    """Pop the pending store/atomic an acknowledgment answers.

    Acks carry the version of the request they acknowledge whenever the
    protocol can (all four protocols thread it through).  Matching by
    version matters because the L2's MSHR-full retry path re-enters the
    bank pipeline on an independent timer, which can reorder same-line
    requests from one SM — plain FIFO popping would then pair each ack
    with the wrong pending entry, tearing atomic old/new pairs and warp
    timestamp updates.  Falls back to FIFO only when the ack carries no
    version (unit tests that hand-build messages); an ack whose version
    matches no pending entry raises ``RuntimeError``.
    """
    if version is None:
        return queue.popleft()
    for index, pending in enumerate(queue):
        if pending.version == version:
            del queue[index]
            return pending
    raise RuntimeError(
        f"ack for line {queue[0].addr:#x} carries version {version}, "
        f"which no pending request on the line holds "
        f"(pending: {[pending.version for pending in queue]})")


class _Dispatch:
    """Message dispatch through a table built once per class.

    A controller lists ``_handler_names``, message class -> name of the
    method that handles it.  Every subclass gets ``_handler_table``,
    the same table with each name resolved on that subclass, so an
    override dispatches.  A controller reads the table through its
    ``_handlers`` slot (a slot read is cheaper than a class-attribute
    read on the hot receive path) and calls ``handler(self, msg)``.
    The table holds functions, not bound methods: a per-instance table
    of bound methods would tie every controller into a reference cycle
    with itself.
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


# ---------------------------------------------------------------------------
# L1 controller base
# ---------------------------------------------------------------------------

class L1ControllerBase(_Dispatch):
    """Per-SM private-cache controller.

    The SM calls :meth:`load` / :meth:`store`; both return True when
    the access was accepted and False when a structural hazard (full
    MSHR) forces the SM to retry later.  Completion is signalled
    through the ``on_done`` callback.
    """

    __slots__ = ("sm_id", "uid", "machine", "config", "engine", "stats",
                 "_counters", "_l1_latency", "_load_hist", "_store_hist",
                 "_atomic_hist", "_num_homes", "_src", "mshr", "trace",
                 "audit", "track")

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
        # observability refs, cached once; None keeps the hot paths to
        # a single identity check per instrumentation point
        obs = machine.obs
        self.trace = obs.tracer if obs is not None else None
        self.audit = obs.audit if obs is not None else None
        # unit_prefix is "" single-GPU (audit logs bit-identical to
        # pre-multigpu runs) and "g<i>:" inside a cluster
        self.track = f"{machine.unit_prefix}sm{sm_id}"

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

    def receive(self, msg: Message) -> None:
        """Handle a response delivered by the NoC."""
        raise NotImplementedError

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

    def _complete(self, callback: Callable[[], None],
                  delay: int = 0) -> None:
        """Fire an SM completion callback ``delay`` cycles from now."""
        engine = self.engine
        engine.post(engine.now + delay, callback)


# ---------------------------------------------------------------------------
# L2 bank base
# ---------------------------------------------------------------------------

class L2BankBase(_Dispatch):
    """One bank of the shared L2 cache.

    Owns the tag array, the bank's service pipeline (requests occupy
    the bank for ``l2_service`` cycles and complete an access
    ``l2_latency`` later), and the miss path to the bank's DRAM
    partition.  Subclasses implement :meth:`_process` (the protocol
    state machine) plus the fill/eviction hooks.
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

    def _process(self, msg: Message) -> None:
        raise NotImplementedError

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
