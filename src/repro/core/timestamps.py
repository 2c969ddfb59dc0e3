"""The logical-time domain shared by all G-TSC L2 banks.

Timestamps are 16-bit logical counters (Section V-D).  When any bank
would assign a timestamp past ``ts_max``, the domain performs a global
reset: every bank rewrites its blocks to ``wts = 1``,
``rts = lease`` and ``mem_ts = 1``, and the domain's *epoch* is
bumped.  Responses carry the epoch; an L1 that sees a newer epoch
flushes itself and resets its warp timestamps, exactly the reset
protocol the paper describes (L2 keeps its data — only timestamps are
rewritten — while L1s flush).
"""

from __future__ import annotations

from typing import Callable, List


class TimestampDomain:
    """Global logical-time bookkeeping for one GPU."""

    def __init__(self, ts_max: int, lease: int, stats=None) -> None:
        if ts_max < 2 * lease:
            raise ValueError("ts_max must comfortably exceed the lease")
        self.ts_max = ts_max
        self.lease = lease
        self.stats = stats
        self.epoch = 0
        self._reset_listeners: List[Callable[[], None]] = []
        self._resetting = False

    def on_reset(self, listener: Callable[[], None]) -> None:
        """Register a bank callback invoked on every overflow reset."""
        self._reset_listeners.append(listener)

    def clear_listeners(self) -> None:
        """Forget every reset listener (a closing GPU unlinks its
        banks this way; see :meth:`repro.gpu.gpu.GPU.close`)."""
        self._reset_listeners.clear()

    def would_overflow(self, ts: int) -> bool:
        """True when assigning ``ts`` requires a reset first."""
        return ts > self.ts_max

    def overflow_reset(self) -> None:
        """Rewrite all timestamps in the machine and bump the epoch.

        L2 banks registered via :meth:`on_reset` rewrite their arrays;
        L1s learn about the reset lazily, from the epoch carried in the
        next response they receive.
        """
        if self.stats is not None:
            self.stats.add("ts_overflows")
        self._reset()

    def kernel_reset(self) -> None:
        """The kernel-boundary reset of Section V-D.

        The paper flushes L1s and resets all timestamps after each
        kernel; the L2 keeps its data, only the logical clocks rewind.
        """
        if self.stats is not None:
            self.stats.add("kernel_ts_resets")
        self._reset()

    def _reset(self) -> None:
        # One domain may serve many L2 banks across many GPUs (the
        # multi-GPU cluster registers every bank plus the shared home
        # directory).  A listener that re-entered the reset would bump
        # the epoch mid-iteration, leaving banks rewritten against
        # different epochs — fail loudly instead.  The snapshot makes
        # a listener registering further listeners safe: they join
        # from the next reset on.
        if self._resetting:
            raise RuntimeError(
                "re-entrant timestamp reset: a reset listener "
                "attempted another domain reset"
            )
        self._resetting = True
        try:
            self.epoch += 1
            for listener in tuple(self._reset_listeners):
                listener()
        finally:
            self._resetting = False

    def clamp(self, ts: int) -> int:
        """Assign ``ts`` if it fits; otherwise reset and signal retry.

        Returns ``ts`` unchanged when no overflow occurs.  On overflow
        the reset is performed and -1 is returned; the caller must
        recompute from the (now reset) machine state.
        """
        if not self.would_overflow(ts):
            return ts
        self.overflow_reset()
        return -1
