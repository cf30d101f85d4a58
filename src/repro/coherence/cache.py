"""Private L1 data cache model.

Set-associative, write-back, LRU replacement.  Transactionally-touched
lines are *pinned* at two strengths:

* write-set lines (pin level 2) are never evicted — the undo log
  restores into them and their M state is the conflict-detection
  anchor;
* read-set lines (pin level 1) are evicted only as a last resort, and
  only from the S state: the directory keeps silently-dropped sharers
  in its (conservative) sharer list, so forwarded invalidations still
  reach the node and the set-based conflict check still fires — the
  same effect LogTM achieves with sticky states.

A set whose ways are all write-pinned surfaces as a *capacity abort*.

Lines carry an integer ``value`` so the test suite can verify atomicity
end-to-end (committed increments must equal final memory contents).

Layout: one insertion-ordered ``{addr: CacheLine}`` map per L1 plus a
``bytearray`` of per-set occupancy.  Every access is one dict probe;
set membership (``addr % num_sets``) matters only when a set is full,
and only then does ``install`` scan the map for that set's lines.  The
scan sees them in the order they entered the set — the order a per-set
dict would hold — so victim choice is exactly that of a per-set layout,
and :meth:`L1Cache.lines` sorts stably by set index to list lines in
per-set order.  At 1024 nodes x 128 sets most sets are never touched;
this layout spends nothing on them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.coherence.states import L1State
from repro.sim.config import CacheConfig

#: Per-set occupancy is kept in a ``bytearray``, one byte per set.
MAX_WAYS = 255


class CacheLine:
    __slots__ = ("addr", "state", "value", "pinned", "lru")

    def __init__(self, addr: int, state: L1State, value: int, lru: int):
        self.addr = addr
        self.state = state
        self.value = value
        self.pinned = 0  # 0 = free, 1 = read-set, 2 = write-set
        self.lru = lru  # last-touch stamp, larger = more recent

    def __repr__(self) -> str:  # pragma: no cover
        pin = f" pin{self.pinned}" if self.pinned else ""
        return f"<Line {self.addr} {self.state.name} v={self.value}{pin}>"


class CapacityError(Exception):
    """Raised when an install cannot find an unpinned victim."""


class L1Cache:
    """One node's private L1."""

    __slots__ = ("config", "_lines", "_fill", "_num_sets", "_ways",
                 "_tick", "evictions")

    def __init__(self, config: CacheConfig):
        if config.ways > MAX_WAYS:
            raise ValueError(f"L1 associativity {config.ways} exceeds "
                             f"{MAX_WAYS} ways (one occupancy byte per set)")
        self.config = config
        self._lines: Dict[int, CacheLine] = {}
        self._fill = bytearray(config.num_sets)  # lines resident per set
        # num_sets chains two properties on a frozen dataclass — cache
        # it and the way count, install reads both
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._tick = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line or None.  Updates LRU on touch."""
        line = self._lines.get(addr)
        if line is not None and touch:
            self._tick += 1
            line.lru = self._tick
        return line

    def install(
        self, addr: int, state: L1State, value: int
    ) -> Tuple[CacheLine, Optional[CacheLine]]:
        """Install (or update) a line.

        Returns ``(line, evicted)`` where ``evicted`` is a victim line
        that the caller must write back if it was dirty (M).

        Raises :class:`CapacityError` when every way of the target set
        is pinned by the running transaction.
        """
        self._tick += 1
        lines = self._lines
        existing = lines.get(addr)
        if existing is not None:
            existing.state = state
            existing.value = value
            existing.lru = self._tick
            return existing, None
        evicted: Optional[CacheLine] = None
        idx = addr % self._num_sets
        fill = self._fill
        if fill[idx] < self._ways:
            fill[idx] += 1
        else:
            victim = self._pick_victim(idx)
            if victim is None:
                raise CapacityError(addr)
            del lines[victim.addr]
            self.evictions += 1
            evicted = victim
        line = CacheLine(addr, state, value, self._tick)
        lines[addr] = line
        return line, evicted

    def _pick_victim(self, idx: int) -> Optional[CacheLine]:
        n = self._num_sets
        cset = [line for addr, line in self._lines.items() if addr % n == idx]
        victim: Optional[CacheLine] = None
        for line in cset:
            if line.pinned:
                continue
            if victim is None or line.lru < victim.lru:
                victim = line
        if victim is not None:
            return victim
        # Last resort: sacrifice a read-pinned line.  S lines drop
        # silently (the directory's sharer list is conservative and the
        # conflict check is set-based); E lines are written back sticky
        # by the caller so the directory keeps the node a sharer.
        # Write-pinned (level 2) lines are never victims.
        for state in (L1State.S, L1State.E):
            for line in cset:
                if line.pinned == 1 and line.state is state:
                    if victim is None or line.lru < victim.lru:
                        victim = line
            if victim is not None:
                return victim
        return victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Drop a line (invalidation).  Returns the line if present."""
        line = self._lines.pop(addr, None)
        if line is not None:
            self._fill[addr % self._num_sets] -= 1
        return line

    def downgrade(self, addr: int) -> Optional[CacheLine]:
        """E/M -> S transition on a forwarded GETS."""
        line = self._lines.get(addr)
        if line is not None:
            line.state = L1State.S
        return line

    def pin(self, addr: int, level: int = 1) -> None:
        """Pin a line at the given strength (1 = read, 2 = write).

        Pin strength only ever increases within a transaction.
        """
        line = self._lines.get(addr)
        if line is not None and level > line.pinned:
            line.pinned = level

    def unpin_all(self, addrs) -> None:
        lines = self._lines
        for addr in addrs:
            line = lines.get(addr)
            if line is not None:
                line.pinned = 0

    # ------------------------------------------------------------------
    def lines(self) -> Iterator[CacheLine]:
        """Resident lines in set order, each set's in the order they
        entered it."""
        n = self._num_sets
        ordered: List[CacheLine] = sorted(self._lines.values(),
                                          key=lambda line: line.addr % n)
        return iter(ordered)

    def resident(self, addr: int) -> bool:
        return addr in self._lines

    def state_of(self, addr: int) -> L1State:
        line = self._lines.get(addr)
        return line.state if line is not None else L1State.I

    def __len__(self) -> int:
        return len(self._lines)
