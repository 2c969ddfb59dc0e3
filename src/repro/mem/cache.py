"""Set-associative tag/state array shared by every cache in the model.

The array stores :class:`CacheLine` records.  Protocol-specific state
(timestamps for G-TSC, physical lease expiry for TC, dirty bits for the
L2) lives in optional fields of the line record, so one structure
serves every protocol.

Addresses everywhere in the reproduction are *line addresses* — the
byte address divided by the line size — because the coalescing unit in
the SM has already reduced thread accesses to line granularity.

Hot-path layout: the tag and replacement state live in flat parallel
lists (``_tags``/``_lru``, indexed ``set * assoc + way``) with an
exact-match index (``_where``: addr → flat slot) kept alongside, so a
lookup is a dict probe and victim selection is index arithmetic over a
packed list — no per-object attribute chasing until a line is actually
returned.  The :class:`CacheLine` objects remain the public API; the
invariant is ``_tags[i] == _lines[i].addr`` when slot ``i`` holds a
valid line and ``-1`` otherwise, which holds because validity and tag
only change inside this module (controllers mutate protocol state —
versions, timestamps, dirty bits — never the tag).

Protocol state has one home, the line record.  Controllers that
inline the tag probe on their hit paths read ``_lines[slot]`` after
the ``_where`` probe.  A slot keeps its line object for the life of
the array (lines are reset in place, never replaced), so per-set views
of ``_lines`` stay valid.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional


class CacheLine:
    """One cache line's tag and protocol state.

    ``version`` is the logical data payload: a monotonically increasing
    per-address integer managed by :class:`repro.validate.VersionStore`.
    Using versions instead of byte payloads lets the validators check
    coherence exactly without simulating data movement.
    """

    __slots__ = (
        "addr", "valid", "version", "dirty",
        "wts", "rts", "expiry", "pending_stores", "epoch",
        "renewals",
    )

    def __init__(self) -> None:
        self.addr: int = -1
        self.valid: bool = False
        self.version: int = 0
        self.dirty: bool = False
        # G-TSC timestamps (logical)
        self.wts: int = 0
        self.rts: int = 0
        # TC lease expiry (physical cycle)
        self.expiry: int = 0
        # number of unacknowledged stores targeting this line (G-TSC L1)
        self.pending_stores: int = 0
        # timestamp epoch for overflow handling (G-TSC)
        self.epoch: int = 0
        # renewal streak for the adaptive-lease extension
        self.renewals: int = 0

    def reset(self) -> None:
        """Return the line to the invalid state."""
        self.addr = -1
        self.valid = False
        self.version = 0
        self.dirty = False
        self.wts = 0
        self.rts = 0
        self.expiry = 0
        self.pending_stores = 0
        self.epoch = 0
        self.renewals = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.valid:
            return "<line invalid>"
        return (
            f"<line addr={self.addr} v{self.version} "
            f"wts={self.wts} rts={self.rts} expiry={self.expiry}>"
        )


class CacheArray:
    """A set-associative array of :class:`CacheLine` with LRU replacement.

    The array never initiates traffic; controllers call
    :meth:`lookup`, :meth:`allocate` and :meth:`invalidate` and decide
    what the results mean for their protocol.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets <= 0 or assoc <= 0:
            raise ValueError("cache geometry must be positive")
        self.num_sets = num_sets
        self.assoc = assoc
        size = num_sets * assoc
        self._lines: list[CacheLine] = [CacheLine() for _ in range(size)]
        # packed parallel state: tag per slot (-1 = invalid way) and
        # replacement age per slot (larger = more recently used)
        self._tags: list[int] = [-1] * size
        self._lru: list[int] = [0] * size
        # invalid ways per set: lets the victim scan skip the
        # first-invalid-way probe on full sets without an exception
        self._free: list[int] = [assoc] * num_sets
        # exact-match accelerator: addr -> flat slot of its valid line
        self._where: dict[int, int] = {}
        self._tick = 0

    # -- queries ---------------------------------------------------------------
    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the valid line holding ``addr``, or None (no side effects
        beyond an LRU touch).  This runs for every L1 and L2 access, so
        it is a single dict probe."""
        slot = self._where.get(addr)
        if slot is None:
            return None
        if touch:
            self._tick += 1
            self._lru[slot] = self._tick
        return self._lines[slot]

    def lines(self) -> Iterator[CacheLine]:
        """Iterate over every valid line (flush helpers, validators)."""
        lines = self._lines
        for slot, tag in enumerate(self._tags):
            if tag != -1:
                yield lines[slot]

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return len(self._where)

    # -- mutation ----------------------------------------------------------------
    def _victim_slot(
        self,
        addr: int,
        evictable: Optional[Callable[[CacheLine], bool]],
    ) -> int:
        """Flat slot of the way that would be (re)used for ``addr``.

        Preference order: the first invalid way, else the LRU way among
        those for which ``evictable`` returns True.  Returns -1 when
        every way is pinned (TC's lease-blocked replacement, II-D3).
        """
        assoc = self.assoc
        set_index = addr % self.num_sets
        base = set_index * assoc
        end = base + assoc
        if self._free[set_index]:
            return self._tags.index(-1, base, end)
        lru = self._lru
        best = -1
        best_age = -1
        if evictable is None:
            for slot in range(base, end):
                age = lru[slot]
                if best < 0 or age < best_age:
                    best = slot
                    best_age = age
        else:
            lines = self._lines
            for slot in range(base, end):
                if evictable(lines[slot]):
                    age = lru[slot]
                    if best < 0 or age < best_age:
                        best = slot
                        best_age = age
        return best

    def allocate(
        self,
        addr: int,
        evictable: Optional[Callable[[CacheLine], bool]] = None,
    ) -> tuple[Optional[CacheLine], Optional[CacheLine]]:
        """Install ``addr``, evicting if needed.

        Returns ``(line, evicted_copy)``.  ``evicted_copy`` is a
        detached :class:`CacheLine` snapshot of the victim when a valid
        line was displaced (so the controller can write it back or fold
        its timestamps into ``mem_ts``), else None.  When no victim is
        evictable, returns ``(None, None)`` and the caller must retry.
        """
        slot = self._where.get(addr)
        if slot is not None:
            self._tick += 1
            self._lru[slot] = self._tick
            return self._lines[slot], None
        slot = self._victim_slot(addr, evictable)
        if slot < 0:
            return None, None
        victim = self._lines[slot]
        evicted: Optional[CacheLine] = None
        if not victim.valid:
            self._free[addr % self.num_sets] -= 1
        else:
            # detached snapshot; __new__ skips __init__'s field zeroing
            # since every slot is assigned here
            evicted = CacheLine.__new__(CacheLine)
            evicted.addr = victim.addr
            evicted.valid = True
            evicted.version = victim.version
            evicted.dirty = victim.dirty
            evicted.wts = victim.wts
            evicted.rts = victim.rts
            evicted.expiry = victim.expiry
            evicted.pending_stores = victim.pending_stores
            evicted.epoch = victim.epoch
            evicted.renewals = victim.renewals
            del self._where[victim.addr]
        victim.reset()
        victim.addr = addr
        victim.valid = True
        self._tags[slot] = addr
        self._where[addr] = slot
        self._tick += 1
        self._lru[slot] = self._tick
        return victim, evicted

    def invalidate(self, addr: int) -> bool:
        """Drop ``addr`` if present.  Returns True when a line was dropped."""
        slot = self._where.pop(addr, None)
        if slot is None:
            return False
        self._tags[slot] = -1
        self._free[addr % self.num_sets] += 1
        self._lines[slot].reset()
        return True

    def flush(self) -> int:
        """Invalidate every line; returns the number dropped."""
        count = 0
        tags = self._tags
        lines = self._lines
        for slot, tag in enumerate(tags):
            if tag != -1:
                tags[slot] = -1
                lines[slot].reset()
                count += 1
        self._where.clear()
        # in place: controllers may hold a view of the free-way counts
        self._free[:] = [self.assoc] * self.num_sets
        return count
