"""Warp state.

A warp executes its trace in program order.  Loads block the warp
until data returns (the next instruction is presumed dependent — GPUs
hide latency across warps, not within one).  Stores block only under
SC; under RC they are tracked as outstanding and drained by fences.

The trace is a packed :class:`~repro.trace.compiled.CompiledTrace`:
``ops``/``args`` are the per-instruction lists the SM hot path indexes
directly.  Unit tests build a warp's trace from rows with
:func:`~repro.trace.compiled.pack_trace`.

Two pieces of scheduler plumbing also live here because they are
per-warp state:

* ``load_cb`` / ``store_cb`` — the warp's preallocated memory
  completion callbacks, bound once when the SM takes ownership
  (:meth:`bind`) and dropped, with ``sm``, when the warp retires.  The
  L1/L2/NoC completion path carries these exact objects, so issuing a
  memory access allocates no closure.
* ``slot`` — this warp's index into the owning SM's ``active`` list
  and its parallel ``_cls`` classification cache (packed int: state
  in the low 3 bits, wake time + 1 in the rest; -1 = dirty).  Any
  mutation of schedule-relevant state must mark the entry dirty with
  ``sm._cls[warp.slot] = -1``; completion callbacks and the SM's
  issue path do.
"""

from __future__ import annotations

from typing import List, Optional

from repro.trace.compiled import OP_FENCE, CompiledTrace


class Warp:
    """One warp's architectural and scheduling state."""

    __slots__ = (
        "uid", "cta_id", "ops", "args", "length", "pc",
        "ts", "epoch", "gwct",
        "outstanding_loads", "outstanding_stores",
        "pending_addrs", "pending_op", "retry_at",
        "ready_at", "done", "barrier_blocked",
        "fence_wait_start",
        "sm", "load_cb", "store_cb", "slot",
    )

    def __init__(self, uid: int, trace: CompiledTrace,
                 cta_id: int = -1) -> None:
        self.uid = uid
        # CTA membership; -1 means the warp is its own CTA
        self.cta_id = cta_id if cta_id >= 0 else uid
        self.ops = trace.ops
        self.args = trace.args
        self.length = trace.length
        self.pc = 0
        # logical clock (G-TSC); all warp timestamps start at 1
        self.ts = 1
        self.epoch = 0
        # Global Write Completion Time (TC-Weak)
        self.gwct = 0
        self.outstanding_loads = 0
        self.outstanding_stores = 0
        # line addresses of the current memory instruction not yet
        # accepted by the L1 (MSHR back-pressure)
        self.pending_addrs: Optional[List[int]] = None
        self.pending_op: Optional[int] = None
        self.retry_at = 0
        # compute-blocked until this cycle
        self.ready_at = 0
        self.done = False
        # waiting at an intra-CTA barrier for the rest of the CTA
        self.barrier_blocked = False
        # cycle at which this warp started waiting at a fence (stats)
        self.fence_wait_start: Optional[int] = None
        # owning SM and prebound completion callbacks (see bind)
        self.sm = None
        self.load_cb = None
        self.store_cb = None
        # index into the owning SM's active/_cls lists (set on
        # activation; the _cls entry starts dirty)
        self.slot = -1

    def bind(self, sm) -> None:
        """Attach to the owning SM and prebind completion callbacks."""
        self.sm = sm
        self.load_cb = self._load_done
        self.store_cb = self._store_done

    # The completion callbacks inline SM.notify(self): these fire once
    # per memory access in every run, and the extra frame showed up in
    # profiles.  Keep in sync with SM.notify / SM._check_retire.
    def _load_done(self) -> None:
        self.outstanding_loads -= 1
        sm = self.sm
        sm._cls[self.slot] = -1
        sm._cand |= 1 << self.slot
        if self.pc >= self.length:
            sm._check_retire(self)
        if sm.active:
            engine = sm.engine
            now = engine.now
            event = sm._issue_event
            if event is not None and event[2] is not None:
                if event[0] <= now:
                    return
                engine.cancel(event)
            sm._issue_event = engine.post(now, sm._issue)

    def _store_done(self) -> None:
        self.outstanding_stores -= 1
        sm = self.sm
        sm._cls[self.slot] = -1
        sm._cand |= 1 << self.slot
        if self.pc >= self.length:
            sm._check_retire(self)
        if sm.active:
            engine = sm.engine
            now = engine.now
            event = sm._issue_event
            if event is not None and event[2] is not None:
                if event[0] <= now:
                    return
                engine.cancel(event)
            sm._issue_event = engine.post(now, sm._issue)

    @property
    def finished_trace(self) -> bool:
        return self.pc >= self.length

    def at_fence(self) -> bool:
        return self.pc < self.length and self.ops[self.pc] == OP_FENCE

    def drained(self) -> bool:
        """No outstanding memory operations of any kind."""
        return (self.outstanding_loads == 0
                and self.outstanding_stores == 0
                and self.pending_addrs is None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<warp {self.uid} pc={self.pc}/{self.length} ts={self.ts} "
            f"ldo={self.outstanding_loads} sto={self.outstanding_stores}>"
        )
