"""The coalescing unit (Section II-A).

Accesses by the 32 threads of a warp are merged into the minimum
number of line-granular transactions before they reach the L1.  The
workload generators usually emit line addresses directly; this module
is the front end for traces expressed at *thread* granularity — it
turns per-thread byte addresses into the coalesced line set and
reports the coalescing degree, the metric GPU performance work uses to
characterise access regularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.trace.compiled import Row, load, store


@dataclass(frozen=True)
class CoalescingResult:
    """Outcome of coalescing one warp-wide access."""

    line_addrs: List[int]
    thread_count: int

    @property
    def transactions(self) -> int:
        return len(self.line_addrs)

    @property
    def degree(self) -> float:
        """Average threads served per transaction (32 is perfect for a
        full warp on one line; 1 is fully divergent)."""
        if not self.line_addrs:
            return 0.0
        return self.thread_count / len(self.line_addrs)


def coalesce(byte_addrs: Iterable[int], line_size: int) -> CoalescingResult:
    """Merge per-thread byte addresses into unique line addresses.

    The result preserves ascending line order (the order memory
    transactions are generated in real coalescers).
    """
    if line_size <= 0:
        raise ValueError("line size must be positive")
    addrs = list(byte_addrs)
    lines = sorted({addr // line_size for addr in addrs})
    return CoalescingResult(line_addrs=lines, thread_count=len(addrs))


def coalesced_load(byte_addrs: Sequence[int], line_size: int) -> Row:
    """A warp load row from per-thread byte addresses."""
    result = coalesce(byte_addrs, line_size)
    if not result.line_addrs:
        raise ValueError("load needs at least one thread address")
    return load(*result.line_addrs)


def coalesced_store(byte_addrs: Sequence[int], line_size: int) -> Row:
    """A warp store row from per-thread byte addresses."""
    result = coalesce(byte_addrs, line_size)
    if not result.line_addrs:
        raise ValueError("store needs at least one thread address")
    return store(*result.line_addrs)


def unit_stride_access(base: int, threads: int, element_size: int,
                       line_size: int) -> CoalescingResult:
    """The canonical regular pattern: thread *i* touches
    ``base + i * element_size``."""
    return coalesce(
        (base + i * element_size for i in range(threads)), line_size)


def strided_access(base: int, threads: int, stride: int,
                   line_size: int) -> CoalescingResult:
    """Thread *i* touches ``base + i * stride`` — large strides are
    the classic uncoalesced worst case (one transaction per thread)."""
    return coalesce((base + i * stride for i in range(threads)), line_size)
