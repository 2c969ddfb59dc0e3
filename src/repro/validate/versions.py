"""Logical data payloads.

Instead of moving byte payloads around, every store creates a new
*version* of its line — a small integer unique per (address, store).
Caches carry the version number; loads return it.  This gives the
validators an exact record of *which* write each read observed, which
is all a coherence checker needs, at a fraction of the simulation cost
of real data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class VersionStore:
    """Allocates version numbers and, when recording, remembers global
    write order.

    Version 0 of every address is the initial memory content.  Every
    L2 reports each write it performs via :meth:`record_wts` (G-TSC
    with the logical write timestamp it assigned), and the checkers in
    :mod:`repro.validate.checker` read those records.  They cost two
    entries per store, so only a recording store keeps them:
    :class:`~repro.gpu.gpu.GPU` builds its store with
    ``record_writes=record_accesses``, and a run that keeps no access
    log keeps only the version counters (:meth:`new_version`,
    :meth:`latest`).  A store built on its own records.
    """

    def __init__(self, record_writes: bool = True) -> None:
        self.record_writes = record_writes
        self._next: Dict[int, int] = {}
        # (addr, version) -> logical wts assigned by the L2 (per epoch)
        self._wts: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # addr -> [(epoch, wts, version)] in L2 *processing* order —
        # the authoritative global write order for that line (version
        # numbers are minted at issue and may be processed out of
        # mint order when two SMs race)
        self._order: Dict[int, List[Tuple[int, int, int]]] = {}

    def new_version(self, addr: int) -> int:
        """Mint the next version number for ``addr`` (1, 2, ...)."""
        version = self._next.get(addr, 0) + 1
        self._next[addr] = version
        return version

    def latest(self, addr: int) -> int:
        """The most recently minted version for ``addr`` (0 = initial)."""
        return self._next.get(addr, 0)

    def record_wts(self, addr: int, version: int, wts: int,
                   epoch: int = 0) -> None:
        """Remember the logical timestamp the L2 gave to a version.

        Called by the L2 at the moment the store is performed, so the
        per-address call order is the global write order of the line.
        A store that does not record writes keeps nothing.
        """
        if not self.record_writes:
            return
        self._wts[(addr, version)] = (epoch, wts)
        order = self._order.get(addr)
        if order is None:
            order = self._order[addr] = []
        order.append((epoch, wts, version))

    def write_order(self, addr: int) -> List[Tuple[int, int, int]]:
        """``(epoch, wts, version)`` tuples in L2 processing order."""
        return list(self._order.get(addr, []))

    def wts_of(self, addr: int, version: int) -> Tuple[int, int]:
        """``(epoch, wts)`` of a version; version 0 is (epoch 0, wts 0)."""
        if version == 0:
            return (0, 0)
        return self._wts[(addr, version)]

    def versions_of(self, addr: int) -> int:
        """How many store-created versions exist for ``addr``."""
        return self._next.get(addr, 0)


@dataclass(frozen=True)
class LoadRecord:
    """One completed load, as seen by the validator."""

    warp_uid: int
    addr: int
    version: int
    logical_ts: int      # warp_ts after the load completed (G-TSC)
    epoch: int           # timestamp epoch at completion
    issue_cycle: int
    complete_cycle: int
    l1_hit: bool


@dataclass(frozen=True)
class StoreRecord:
    """One completed store, as seen by the validator."""

    warp_uid: int
    addr: int
    version: int
    logical_ts: int      # wts assigned by the L2 (G-TSC)
    epoch: int
    issue_cycle: int
    complete_cycle: int


@dataclass(frozen=True)
class AtomicRecord:
    """One completed atomic read-modify-write.

    ``old_version`` is what the L2 read at the instant the atomic was
    performed; atomicity demands it be the immediate predecessor of
    ``new_version`` in the line's global write order.
    """

    warp_uid: int
    addr: int
    old_version: int
    new_version: int
    logical_ts: int
    epoch: int
    issue_cycle: int
    complete_cycle: int


@dataclass
class AccessLog:
    """Ordered record of every completed memory operation.

    Recording can be disabled for large benchmark runs; the protocols
    check :attr:`enabled` before appending.
    """

    enabled: bool = True
    loads: List[LoadRecord] = field(default_factory=list)
    stores: List[StoreRecord] = field(default_factory=list)
    atomics: List["AtomicRecord"] = field(default_factory=list)

    def loads_of(self, addr: int) -> List[LoadRecord]:
        """All recorded loads of one address (test helper)."""
        return [r for r in self.loads if r.addr == addr]

    def final_value(self, addr: int, store: "VersionStore") -> int:
        """The newest version of ``addr`` after the run."""
        return store.latest(addr)
