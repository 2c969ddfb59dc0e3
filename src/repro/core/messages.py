"""G-TSC message formats (Table I of the paper).

Each message carries exactly the fields Table I lists; sizes are a
header plus 16-bit timestamps plus, for data-bearing messages, one
cache line.  The renewal response (``BusRnw``) carrying *no data* is
one of G-TSC's traffic advantages over TC, so sizing is faithful.

Sizing invariant: every message's :meth:`payload_bytes` here depends
only on its *class* and the config — never on per-instance fields —
so :class:`repro.gpu.machine.Machine` computes the on-wire size once
per class and caches it for the rest of the run.  A message class
whose payload *does* vary per instance must set ``uniform_size =
False`` (see ``repro.protocols.base.Message``).
"""

from __future__ import annotations

from typing import Optional

from repro.protocols.base import Message


class BusRd(Message):
    """Read / renewal request from L1 to L2.

    ``wts`` is 0 when the L1 missed outright and the stale copy's write
    timestamp when the tag matched but the lease had expired — the L2
    uses the match to decide between a renewal and a full fill.
    """

    kind = "ctrl"
    __slots__ = ("wts", "warp_ts", "epoch")

    def __init__(self, addr: int, sm: int, wts: int, warp_ts: int,
                 epoch: int) -> None:
        self.addr = addr
        self.sm = sm
        self.wts = wts
        self.warp_ts = warp_ts
        self.epoch = epoch

    def payload_bytes(self, config) -> int:
        # wts + warp_ts (Table I row "Read/Renewal Requests")
        return 2 * config.timestamp_bytes


class BusWr(Message):
    """Write request from L1 to L2 (write-through, data-bearing)."""

    kind = "data"
    __slots__ = ("warp_ts", "version", "epoch")

    def __init__(self, addr: int, sm: int, warp_ts: int, version: int,
                 epoch: int) -> None:
        self.addr = addr
        self.sm = sm
        self.warp_ts = warp_ts
        self.version = version
        self.epoch = epoch

    def payload_bytes(self, config) -> int:
        # warp_ts + data (Table I row "Write Request")
        return config.timestamp_bytes + config.line_size


class BusFill(Message):
    """Fill response from L2: new data plus its lease."""

    kind = "data"
    __slots__ = ("wts", "rts", "version", "epoch", "reset")

    def __init__(self, addr: int, sm: int, wts: int, rts: int,
                 version: int, epoch: int, reset: bool = False) -> None:
        self.addr = addr
        self.sm = sm
        self.wts = wts
        self.rts = rts
        self.version = version
        self.epoch = epoch
        self.reset = reset

    def payload_bytes(self, config) -> int:
        # rts + wts + data (Table I row "Fill Response")
        return 2 * config.timestamp_bytes + config.line_size


class BusRnw(Message):
    """Renewal response from L2: an extended lease, *no data*."""

    kind = "ctrl"
    __slots__ = ("rts", "epoch")

    def __init__(self, addr: int, sm: int, rts: int, epoch: int) -> None:
        self.addr = addr
        self.sm = sm
        self.rts = rts
        self.epoch = epoch

    def payload_bytes(self, config) -> int:
        # rts only (Table I row "Renewal Response")
        return config.timestamp_bytes


class BusWrAck(Message):
    """Write acknowledgment from L2 with the store's assigned lease.

    ``version`` names the store being acknowledged so the L1 can match
    the ack to the right pending entry even when the L2's retry path
    reordered same-line requests; it models the request tag real
    hardware echoes and adds no payload bytes.
    """

    kind = "ctrl"
    __slots__ = ("wts", "rts", "epoch", "version")

    def __init__(self, addr: int, sm: int, wts: int, rts: int,
                 epoch: int, version: Optional[int] = None) -> None:
        self.addr = addr
        self.sm = sm
        self.wts = wts
        self.rts = rts
        self.epoch = epoch
        self.version = version

    def payload_bytes(self, config) -> int:
        # rts + wts (Table I row "Write Acknowledgment")
        return 2 * config.timestamp_bytes


class BusInv(Message):
    """Back-invalidation (only used by the inclusive-L2 ablation)."""

    kind = "ctrl"
    __slots__ = ()

    def payload_bytes(self, config) -> int:
        return 0


class BusAtm(BusWr):
    """Atomic RMW request: the write request with the operand word in
    place of the line (extension beyond the paper's load/store
    protocol, performed by the L2's write path)."""

    __slots__ = ()

    def payload_bytes(self, config) -> int:
        # warp_ts + the operand word (atomics are sub-line)
        return config.timestamp_bytes + 8


class BusAtmAck(BusWrAck):
    """Atomic response: the write ack plus the old value the RMW read."""

    __slots__ = ("old_version",)

    def __init__(self, addr: int, sm: int, wts: int, rts: int,
                 old_version: int, epoch: int,
                 version: Optional[int] = None) -> None:
        super().__init__(addr, sm, wts, rts, epoch, version)
        self.old_version = old_version

    def payload_bytes(self, config) -> int:
        # rts + wts + the returned old word
        return 2 * config.timestamp_bytes + 8
