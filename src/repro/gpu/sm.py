"""Streaming multiprocessor: warp scheduling and instruction issue.

Each SM issues at most one instruction per cycle from a ready warp
(loose round-robin).  The scheduler is event-driven: when no warp can
issue, the SM sleeps and is woken by memory completions or at the next
compute-ready time; the slept interval is charged to the Figure-13
stall counters, attributed to memory when any warp was waiting on a
memory operation at sleep time.

The consistency model lives here (Section II-B):

* **SC** — a warp may have at most one outstanding memory request:
  loads and stores both block until completion.
* **RC** — stores are fire-and-forget; only a FENCE waits for the
  warp's outstanding operations to drain (and, under TC-Weak, for the
  warp's GWCT to pass in physical time).

Hot-path invariants (this is the single most-executed code in a run):

* Warps execute packed traces (:mod:`repro.trace.compiled`):
  instruction dispatch is small-int comparison on ``warp.ops[pc]``,
  never a field lookup or string compare.
* Memory issue allocates nothing per access — completions ride the
  warp's prebound ``load_cb``/``store_cb`` (see :meth:`Warp.bind`).
* ``active`` is uid-ordered by construction (warps arrive in uid
  order and removal preserves order), so the GTO oldest-first scan is
  a plain iteration, never a sort.
* Warp classification is cached in ``SM._cls``, a packed int list
  parallel to ``active`` (``warp.slot`` is the shared index; -1 marks
  a dirty entry whose schedule-relevant state was mutated).  The
  selection scan walks the int list with index arithmetic and touches
  a :class:`Warp` object only to reclassify a dirty/expired entry or
  to issue from the chosen one — the dirty-set discipline that keeps
  the scan from re-deriving every warp's state on every issue.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional

from repro.config import Consistency, SchedulerPolicy
from repro.trace.compiled import (
    OP_ATOMIC,
    OP_BARRIER,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
)
from repro.gpu.warp import Warp

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.machine import Machine
    from repro.protocols.base import L1ControllerBase

# warp classification results (low 3 bits of the packed value; the
# remaining bits hold wake_time + 1, or 0 when there is no wake time)
_READY = 0
_BLOCKED_MEM = 1
_BLOCKED_COMPUTE = 2
_DONE = 3
_BLOCKED_SYNC = 4   # waiting at an intra-CTA barrier

# "no timed warp pending" sentinel for SM._min_wake (any real wake
# time is a cycle count far below this)
_NO_WAKE = 1 << 62


def ready_mask(cls_values: List[int], now: int) -> int:
    """Candidate bitmask over a packed classification array.

    A slot is a *candidate* when its packed classification says the
    warp might issue at ``now``: dirty (-1), ready (0), or blocked
    with a wake time the clock has reached.  The SM calls this to
    rebuild its incremental candidate mask after warp
    arrival/retirement; the per-issue hot path maintains the mask
    incrementally instead.
    """
    mask = 0
    bit = 1
    for cls in cls_values:
        if cls <= 0 or (cls >= 8 and now >= (cls >> 3) - 1):
            mask |= bit
        bit <<= 1
    return mask


class SM:
    """One streaming multiprocessor."""

    def __init__(self, sm_id: int, machine: "Machine",
                 l1: "L1ControllerBase") -> None:
        self.sm_id = sm_id
        self.machine = machine
        self.config = machine.config
        self.engine = machine.engine
        self.stats = machine.stats
        # raw counter mapping: the issue path increments it directly
        self._counters = machine.stats.counters
        self.l1 = l1
        self.sc = machine.config.consistency is Consistency.SC

        self.queue: Deque[Warp] = deque()   # warps waiting for a slot
        self.active: List[Warp] = []        # resident warps, uid-ordered
        # packed classification cache, parallel to `active`
        # (warp.slot indexes both; -1 = dirty, recompute on next scan)
        self._cls: List[int] = []
        # incremental scan state over _cls:
        #   _cand  — bitmask of candidate slots (dirty or known-ready);
        #            -1 = rebuild from _cls via ready_mask() at the
        #            next scan (set when slots are added or renumbered,
        #            since -1 absorbs the |= bit updates in between)
        #   _timed — bitmask of slots blocked with a wake time (may
        #            carry stale bits; the scan drops them lazily)
        #   _min_wake — lower bound on the earliest wake time among
        #            _timed slots; the scan only walks _timed once the
        #            clock reaches it
        self._cand = -1
        self._timed = 0
        self._min_wake = _NO_WAKE
        self.retired = 0
        self._rr = 0
        self._greedy = machine.config.scheduler is SchedulerPolicy.GTO
        self._last_warp: Optional[Warp] = None
        # CTA bookkeeping: resident members and barrier arrivals
        self._cta_members: dict = {}
        self._barrier_arrived: dict = {}
        self._issue_event = None
        self._sleep_start: Optional[int] = None
        self._sleep_mem = False
        obs = machine.obs
        self.trace = obs.tracer if obs is not None else None
        self.track = f"sm{sm_id}"

    # ------------------------------------------------------------------
    # warp lifecycle
    # ------------------------------------------------------------------
    def add_warp(self, warp: Warp) -> None:
        warp.bind(self)
        self.queue.append(warp)

    def start(self) -> None:
        self._activate()
        if self.active:
            self._schedule_issue(0)

    def _activate(self) -> None:
        """Bring queued warps on-SM, whole CTAs at a time.

        A CTA's warps are enqueued consecutively; a CTA activates only
        when the SM has room for all of it (barriers require every
        member resident).  Warps are enqueued in uid order, so
        ``active`` stays uid-sorted without ever sorting.
        """
        while self.queue:
            cta_id = self.queue[0].cta_id
            block: List[Warp] = []
            while self.queue and self.queue[0].cta_id == cta_id:
                block.append(self.queue.popleft())
            if len(self.active) + len(block) \
                    <= self.config.max_warps_per_sm:
                base = len(self.active)
                self.active.extend(block)
                self._cls.extend([-1] * len(block))
                self._cand = -1            # new slots: rebuild the mask
                for slot, member in enumerate(block, base):
                    member.slot = slot
                self._cta_members.setdefault(cta_id, []).extend(block)
            else:
                # not enough room: put the CTA back and stop
                self.queue.extendleft(reversed(block))
                break

    def _check_retire(self, warp: Warp) -> None:
        if warp.done or not (warp.pc >= warp.length and warp.drained()):
            return
        if self.engine.now < warp.ready_at:
            # a trailing compute instruction is still executing
            self.engine.at(warp.ready_at, self._check_retire, warp)
            return
        warp.done = True
        # a retired warp is drained, so nothing calls back into it:
        # drop the links bind() made, each of which closes a reference
        # cycle through this SM
        warp.sm = warp.load_cb = warp.store_cb = None
        self.retired += 1
        self._counters["warps_retired"] += 1
        slot = warp.slot
        active = self.active
        active.pop(slot)
        self._cls.pop(slot)
        self._cand = -1               # slots renumbered: rebuild masks
        for index in range(slot, len(active)):
            active[index].slot = index
        members = self._cta_members.get(warp.cta_id)
        if members is not None:
            members.remove(warp)
            if not members:
                self._cta_members.pop(warp.cta_id, None)
                self._barrier_arrived.pop(warp.cta_id, None)
            else:
                # a retiring warp releases CTA-mates waiting on it
                self._maybe_release_barrier(warp.cta_id)
        self._activate()
        if self.active:
            # a queued warp may just have been activated
            self._schedule_issue(0)

    # ------------------------------------------------------------------
    # wake-up plumbing
    # ------------------------------------------------------------------
    def notify(self, warp: Optional[Warp] = None) -> None:
        """A memory operation completed; reschedule issue."""
        # only a warp past the end of its trace can retire, so skip the
        # _check_retire call entirely for mid-trace completions
        if warp is not None and warp.pc >= warp.length:
            self._check_retire(warp)
        if self.active:
            # _schedule_issue(0), inlined: one notify per completed
            # memory access makes the call overhead visible
            engine = self.engine
            now = engine.now
            event = self._issue_event
            if event is not None and event[2] is not None:
                if event[0] <= now:
                    return
                engine.cancel(event)
            self._issue_event = engine.post(now, self._issue)

    def _schedule_issue(self, delay: int) -> None:
        event = self._issue_event
        # a cancelled or already-fired handle (callback slot nulled) is
        # absent, whatever stale fire time it still carries — it must
        # never suppress a needed issue event
        if event is not None and event[2] is not None:
            if event[0] <= self.engine.now + delay:  # [0] is fire time
                return
            self.engine.cancel(event)
        self._issue_event = self.engine.post(
            self.engine.now + delay, self._issue)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _classify(self, warp: Warp) -> int:
        """The warp's packed (state, wake_time) classification.

        Served from the ``_cls`` cache unless the warp was mutated
        since the last computation (entry -1) or its cached wake time
        has been reached (a time-blocked warp becomes ready by the
        clock alone).  States without a wake time can only change
        through a mutation, which always marks the entry dirty.
        """
        cls = self._cls[warp.slot]
        if cls >= 0 and (cls < 8 or self.engine.now < (cls >> 3) - 1):
            return cls
        cls = self._classify_fresh(warp)
        self._cls[warp.slot] = cls
        self._cand = -1       # cold path: let the next scan resync
        return cls

    def _classify_fresh(self, warp: Warp) -> int:
        now = self.engine.now
        if warp.done:
            return _DONE
        if warp.barrier_blocked:
            return _BLOCKED_SYNC
        if warp.pending_addrs is not None:
            # MSHR back-pressure: retry the rest of the instruction
            if now >= warp.retry_at:
                return _READY
            return _BLOCKED_MEM | ((warp.retry_at + 1) << 3)
        if warp.outstanding_loads > 0:
            return _BLOCKED_MEM
        pc = warp.pc
        if pc >= warp.length:
            # trace finished; draining trailing stores
            if warp.outstanding_stores > 0:
                return _BLOCKED_MEM
            return _DONE
        op = warp.ops[pc]
        if op == OP_BARRIER:
            # arrival requires the warp's memory to be drained (the
            # barrier doubles as a block-level fence)
            if warp.outstanding_stores > 0:
                return _BLOCKED_MEM
            return _READY
        if op == OP_FENCE:
            if warp.outstanding_stores > 0:
                if warp.fence_wait_start is None:
                    warp.fence_wait_start = now
                return _BLOCKED_MEM
            if now < warp.gwct:
                # TC-Weak: the fence waits for physical visibility
                if warp.fence_wait_start is None:
                    warp.fence_wait_start = now
                return _BLOCKED_MEM | ((warp.gwct + 1) << 3)
            return _READY
        if self.sc and warp.outstanding_stores > 0:
            return _BLOCKED_MEM
        if now < warp.ready_at:
            return _BLOCKED_COMPUTE | ((warp.ready_at + 1) << 3)
        return _READY

    # _issue is the single most-fired event callback in a run.  The
    # warp-selection scan and the instruction-issue switch are inlined
    # into its body (rather than living in _pick_warp/_issue_instr
    # helpers), and the scans inline _classify's cache check (dirty
    # flag, or a cached wake time the clock has reached): the
    # method-call overhead alone dominated the scan in profiles.
    def _issue(self) -> None:
        self._issue_event = None
        now = self.engine.now
        start = self._sleep_start
        if start is not None:
            # end-of-stall accounting, inlined (one call per wake-up)
            self._sleep_start = None
            slept = now - start
            if slept > 0:
                counters = self._counters
                counters["stall_cycles"] += slept
                if self._sleep_mem:
                    counters["stall_mem_cycles"] += slept
                if self.trace is not None:
                    self.trace.complete(
                        start, now, self.track,
                        "stall_mem" if self._sleep_mem else "stall")
        active = self.active
        count = len(active)
        if count == 0:
            return
        fresh = self._classify_fresh
        cls_arr = self._cls

        # -- candidate mask upkeep -------------------------------------
        # The scans below walk only the candidate slots (dirty, ready,
        # or timed-blocked past their wake time) instead of the whole
        # packed list; a warp object is touched only to reclassify a
        # candidate or to issue from the chosen one (_READY is the bare
        # value 0: ready warps never carry wake bits, so `cls == 0` is
        # the ready test).  Mask state lives in locals for the whole
        # selection phase and is flushed once per exit path — nothing
        # called before the flush reads it (_classify_fresh never
        # touches the masks; external |= sites only run between engine
        # callbacks).
        cand = self._cand
        timed = self._timed
        min_wake = self._min_wake
        if cand < 0:
            # slots were added/renumbered: rebuild from the packed
            # classifications
            cand = ready_mask(cls_arr, now)
            timed = 0
            min_wake = _NO_WAKE
            for slot in range(count):
                cls = cls_arr[slot]
                if cls >= 8:
                    timed |= 1 << slot
                    wake_time = (cls >> 3) - 1
                    if wake_time < min_wake:
                        min_wake = wake_time
        elif now >= min_wake:
            # the clock reached a timed slot's wake time: fold the
            # expired slots into the candidate set (pure reads — they
            # are reclassified only when the scan visits them, in slot
            # order, exactly as the full walk used to)
            t = timed
            keep = 0
            expired = 0
            while t:
                low = t & -t
                t -= low
                cls = cls_arr[low.bit_length() - 1]
                if cls >= 8:     # stale timed bits are dropped here
                    keep |= low
                    if now >= (cls >> 3) - 1:
                        expired |= low
            timed = keep
            if expired:
                cand |= expired
            else:
                # nothing due: raise the gate to the earliest pending
                # wake so quiet scans skip the walk entirely
                min_wake = _NO_WAKE
                t = keep
                while t:
                    low = t & -t
                    t -= low
                    wake_time = (cls_arr[low.bit_length() - 1] >> 3) - 1
                    if wake_time < min_wake:
                        min_wake = wake_time

        # -- select the next warp, per the config policy ---------------
        chosen = None
        m = cand
        if self._greedy:
            # greedy-then-oldest: stick with the current warp while it
            # can issue, else fall back to the oldest ready warp.  A
            # non-done warp is always resident (retiring is the only
            # removal from active), so no membership scan is needed.
            last = self._last_warp
            if last is not None and not last.done:
                slot = last.slot
                cls = cls_arr[slot]
                if cls < 0 or (cls >= 8 and now >= (cls >> 3) - 1):
                    cls = cls_arr[slot] = fresh(last)
                    if cls != 0:
                        cand &= ~(1 << slot)
                        if cls >= 8:
                            timed |= 1 << slot
                            wake_time = (cls >> 3) - 1
                            if wake_time < min_wake:
                                min_wake = wake_time
                        m = cand
                if cls == 0:
                    chosen = last
            if chosen is None:
                while m:       # uid-ordered by construction
                    low = m & -m
                    m -= low
                    slot = low.bit_length() - 1
                    cls = cls_arr[slot]
                    if cls < 0 or (cls >= 8 and now >= (cls >> 3) - 1):
                        cls = cls_arr[slot] = fresh(active[slot])
                    if cls == 0:
                        chosen = active[slot]
                        break
                    # discovered blocked (or a stale bit): retire it
                    # from the candidate set
                    cand &= ~low
                    if cls >= 8:
                        timed |= low
                        wake_time = (cls >> 3) - 1
                        if wake_time < min_wake:
                            min_wake = wake_time
        else:
            rr = self._rr
            if rr >= count:  # warps retired since the last update
                rr %= count
            while m:
                # next candidate at or after rr, wrapping — the same
                # circular visit order as the full round-robin walk
                upper = m >> rr
                if upper:
                    low = (upper & -upper) << rr
                else:
                    low = m & -m
                m -= low
                slot = low.bit_length() - 1
                cls = cls_arr[slot]
                if cls < 0 or (cls >= 8 and now >= (cls >> 3) - 1):
                    cls = cls_arr[slot] = fresh(active[slot])
                if cls == 0:
                    chosen = active[slot]
                    slot += 1
                    self._rr = 0 if slot >= count else slot
                    break
                cand &= ~low
                if cls >= 8:
                    timed |= low
                    wake_time = (cls >> 3) - 1
                    if wake_time < min_wake:
                        min_wake = wake_time
        if chosen is None:
            # no warp can issue: record why and arrange a wake-up.  The
            # failed scan above visited every candidate and everything
            # else was cached-blocked, so the cls values are all fresh
            # at `now` — read them directly instead of re-deriving.
            wake: Optional[int] = None
            any_mem = False
            timed = 0
            bit = 1
            for cls in cls_arr:
                if cls & 7 == _BLOCKED_MEM:
                    any_mem = True
                if cls >= 8:
                    timed |= bit
                    wake_time = (cls >> 3) - 1
                    if wake is None or wake_time < wake:
                        wake = wake_time
                bit <<= 1
            self._cand = cand
            self._timed = timed
            self._min_wake = wake if wake is not None else _NO_WAKE
            self._sleep_start = now
            self._sleep_mem = any_mem
            if wake is not None:
                self._schedule_issue(wake - now)
            # otherwise a completion callback will notify() us
            return
        self._last_warp = chosen

        # -- issue one instruction from the chosen warp ----------------
        warp = chosen
        cls_arr[warp.slot] = -1
        self._cand = cand | (1 << warp.slot)
        self._timed = timed
        self._min_wake = min_wake
        if warp.pending_addrs is not None:
            self._issue_mem_accesses(warp)
        else:
            pc = warp.pc
            op = warp.ops[pc]
            counters = self._counters
            counters["instructions"] += 1
            if op == OP_COMPUTE:
                warp.pc = pc + 1
                warp.ready_at = now + warp.args[pc]
            elif op <= OP_ATOMIC:      # LOAD, STORE or ATOMIC
                counters["mem_instructions"] += 1
                warp.pc = pc + 1
                warp.pending_op = op
                warp.pending_addrs = list(warp.args[pc])
                self._issue_mem_accesses(warp)
            elif op == OP_FENCE:
                counters["fences"] += 1
                if warp.fence_wait_start is not None:
                    counters["fence_wait_cycles"] += \
                        now - warp.fence_wait_start
                    warp.fence_wait_start = None
                warp.pc = pc + 1
            else:                      # BARRIER
                counters["barriers"] += 1
                warp.pc = pc + 1
                self._arrive_at_barrier(warp)
            if warp.pc >= warp.length:  # mid-trace warps cannot retire
                self._check_retire(warp)
        if self.active:
            # _schedule_issue(1), inlined; nested calls above may have
            # scheduled an earlier issue event, which then wins
            engine = self.engine
            target = now + 1
            event = self._issue_event
            if event is not None and event[2] is not None:
                if event[0] <= target:
                    return
                engine.cancel(event)
            self._issue_event = engine.post(target, self._issue)

    # ------------------------------------------------------------------
    # instruction issue
    # ------------------------------------------------------------------
    def _issue_mem_accesses(self, warp: Warp) -> None:
        self._cls[warp.slot] = -1
        self._cand |= 1 << warp.slot
        pending = warp.pending_addrs
        op = warp.pending_op
        l1 = self.l1
        # hoist the per-op dispatch out of the per-address loop
        if op == OP_LOAD:
            issue, callback, store = l1.load, warp.load_cb, False
        elif op == OP_ATOMIC:
            # an atomic returns a value: it blocks the warp like a
            # load (tracked as an outstanding load)
            issue, callback, store = l1.atomic, warp.load_cb, False
        else:
            issue, callback, store = l1.store, warp.store_cb, True
        remaining: Optional[List[int]] = None
        for index, addr in enumerate(pending):
            if issue(warp, addr, callback):
                if store:
                    warp.outstanding_stores += 1
                else:
                    warp.outstanding_loads += 1
            else:
                # structural hazard: park the rest and retry later
                remaining = pending[index:]
                break
        if remaining:
            warp.pending_addrs = remaining
            warp.retry_at = self.engine.now + self.config.mshr_retry_interval
            self._schedule_issue(self.config.mshr_retry_interval)
        else:
            warp.pending_addrs = None
            warp.pending_op = None

    # ------------------------------------------------------------------
    # intra-CTA barriers
    # ------------------------------------------------------------------
    def _arrive_at_barrier(self, warp: Warp) -> None:
        arrived = self._barrier_arrived.setdefault(warp.cta_id, set())
        arrived.add(warp.uid)
        warp.barrier_blocked = True
        self._maybe_release_barrier(warp.cta_id)

    def _maybe_release_barrier(self, cta_id: int) -> None:
        arrived = self._barrier_arrived.get(cta_id)
        if not arrived:
            return
        alive = [w for w in self._cta_members.get(cta_id, ())
                 if not w.done]
        waiting = {w.uid for w in alive}
        if waiting and waiting <= arrived:
            self._barrier_arrived[cta_id] = set()
            self._counters["barrier_releases"] += 1
            cls_arr = self._cls
            released = 0
            for member in alive:
                member.barrier_blocked = False
                cls_arr[member.slot] = -1
                released |= 1 << member.slot
            self._cand |= released
            self._schedule_issue(0)
