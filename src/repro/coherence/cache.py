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

Sets are created lazily: every slot of ``_sets`` starts as the one
shared, never-mutated :data:`_EMPTY_SET`, and ``install`` swaps in a
private dict the first time it touches a set.  Reads and removals
(``lookup``, ``invalidate``, ``downgrade``, ``pin``, ``resident``,
``state_of``) need no test: on the shared empty dict they find nothing
and change nothing.  At 1024 nodes x 128 sets most sets are never
touched, so this keeps 8 MB of empty dicts out of the heap.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.coherence.states import L1State
from repro.sim.config import CacheConfig


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


#: The placeholder every untouched set shares.  Only ``install`` adds
#: lines, and it replaces this dict before adding, so it stays empty.
_EMPTY_SET: Dict[int, CacheLine] = {}


class L1Cache:
    """One node's private L1."""

    def __init__(self, config: CacheConfig):
        self.config = config
        # set index -> {addr: CacheLine}; dict preserves O(1) lookup.
        # Untouched sets alias the shared _EMPTY_SET until install.
        self._sets: List[Dict[int, CacheLine]] = \
            [_EMPTY_SET] * config.num_sets
        # num_sets chains two properties on a frozen dataclass — cache
        # it, _set_for runs once per access
        self._num_sets = config.num_sets
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _set_for(self, addr: int) -> Dict[int, CacheLine]:
        # Cold-path helper; hot methods inline the indexed lookup.
        return self._sets[addr % self._num_sets]

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line or None.  Updates LRU on touch."""
        line = self._sets[addr % self._num_sets].get(addr)
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
        idx = addr % self._num_sets
        cset = self._sets[idx]
        if cset is _EMPTY_SET:
            # First touch of this set: at most one dict per set per run.
            cset = self._sets[idx] = {}  # lint: disable=event-alloc -- one allocation per set per run, replacing the shared empty placeholder
        self._tick += 1
        existing = cset.get(addr)
        if existing is not None:
            existing.state = state
            existing.value = value
            existing.lru = self._tick
            return existing, None
        evicted: Optional[CacheLine] = None
        if len(cset) >= self.config.ways:
            victim = self._pick_victim(cset)
            if victim is None:
                raise CapacityError(addr)
            del cset[victim.addr]
            self.evictions += 1
            evicted = victim
        line = CacheLine(addr, state, value, self._tick)
        cset[addr] = line
        return line, evicted

    def _pick_victim(self, cset: Dict[int, CacheLine]) -> Optional[CacheLine]:
        victim: Optional[CacheLine] = None
        for line in cset.values():
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
            for line in cset.values():
                if line.pinned == 1 and line.state is state:
                    if victim is None or line.lru < victim.lru:
                        victim = line
            if victim is not None:
                return victim
        return victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Drop a line (invalidation).  Returns the line if present."""
        return self._sets[addr % self._num_sets].pop(addr, None)

    def downgrade(self, addr: int) -> Optional[CacheLine]:
        """E/M -> S transition on a forwarded GETS."""
        line = self._sets[addr % self._num_sets].get(addr)
        if line is not None:
            line.state = L1State.S
        return line

    def pin(self, addr: int, level: int = 1) -> None:
        """Pin a line at the given strength (1 = read, 2 = write).

        Pin strength only ever increases within a transaction.
        """
        line = self._sets[addr % self._num_sets].get(addr)
        if line is not None and level > line.pinned:
            line.pinned = level

    def unpin_all(self, addrs) -> None:
        for addr in addrs:
            line = self._set_for(addr).get(addr)
            if line is not None:
                line.pinned = 0

    # ------------------------------------------------------------------
    def lines(self) -> Iterator[CacheLine]:
        for cset in self._sets:
            yield from cset.values()

    def resident(self, addr: int) -> bool:
        return addr in self._sets[addr % self._num_sets]

    def state_of(self, addr: int) -> L1State:
        line = self._sets[addr % self._num_sets].get(addr)
        return line.state if line is not None else L1State.I

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)
