"""Pooled, address-interned directory-entry storage.

At 16–64 nodes a plain ``Dict[int, DirEntry]`` per home bank is fine;
at 256–1024 nodes the touched-address set is large and mostly *idle* —
a line whose directory state has decayed back to I carries ten slots
and a dict for the rest of the run.  This module splits the
storage into the two things a bank actually needs:

* :class:`DirStore` — an address-interned flat store.  Each address a
  bank ever sees is interned once into a dense slot; parallel flat
  lists hold the slot's *live* :class:`DirEntry` (or ``None``) and the
  two facts worth keeping for a retired line (its home value and its
  L2-residency bit, which seed the revived entry and the post-run
  value audit).  A retired address costs one dict entry plus two list
  slots instead of a full entry object.
* :class:`DirEntryPool` — a free list of reset :class:`DirEntry`
  objects shared by every bank in the system.  Retiring a line resets
  its entry in place (the reader dict is ``.clear()``-ed, not
  replaced, and a wait queue, already empty, is kept, so their
  allocations are reused too) and pushes it on the
  list; the next ``obtain`` anywhere pops it back.  After warm-up the
  steady state allocates nothing.

A wait queue exists only where a line ever had to queue: ``waitq``
starts as ``None``, the directory creates the deque on the first
request that arrives while the line is blocked, and the entry keeps
it (empty) through every later release and reuse.  Most live lines
never block with waiters, so most entries never carry one.

Retirement is *digest-neutral*: an entry only retires when it is
exactly the state a fresh entry would revive into (state I, unblocked,
empty wait queue), and the preserved value/in-L2 bits make the revived
entry indistinguishable from one that had been kept.  The directory
only retires when no sanitizer is attached — the sanitizer's deferred
line checks look entries up *after* the event boundary, and skipping a
check on a retired line would change the sanitized check count (and so
the sanitized golden digests).

:class:`EntriesView` keeps the old ``directory.entries`` mapping
interface alive on top of the store for audits, the sanitizer and
tests: lookups revive retired lines on access (the exact get-or-keep
semantics the plain dict had), and iteration spans every interned
address.
"""

from __future__ import annotations

from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.coherence.states import DirState

# Message / ServiceRecord are only touched through entry attributes
# here; importing their modules would cycle back through the network.


class DirEntry:
    """Directory state for one cache line.

    ``sharers`` is an integer bitmask (bit ``n`` = node ``n`` shares
    the line): membership, add/remove and clear are int ops with no
    per-event container allocation, and the representation stays one
    object at any mesh width.
    """

    __slots__ = ("state", "sharers", "owner", "value", "in_l2", "blocked",
                 "waitq", "service", "ud", "tx_readers")

    def __init__(self) -> None:
        self.state: DirState = DirState.I
        self.sharers: int = 0
        self.owner: Optional[int] = None
        self.value: int = 0
        self.in_l2: bool = False  # False until first touch (memory fetch)
        self.blocked: bool = False
        # (msg, arrival) waiters; None until the first blocked arrival
        self.waitq: Optional[Deque[Tuple]] = None
        self.service = None  # Optional[ServiceRecord]
        self.ud: Optional[int] = None  # PUNO unicast-destination pointer
        # PUNO reader-epoch metadata: sharer -> timestamp of the
        # transaction whose request added it to the sharer list.
        self.tx_readers: dict = {}


class DirEntryPool:
    """Free list of reset :class:`DirEntry` objects.

    One pool serves every directory bank in a system, so an entry
    retired at one home node is the next entry obtained at any other.
    ``allocated``/``recycled`` are plain introspection counters (not
    Stats fields — pool traffic must never reach the snapshot digest).
    """

    __slots__ = ("_free", "allocated", "recycled")

    def __init__(self) -> None:
        self._free: List[DirEntry] = []
        self.allocated = 0
        self.recycled = 0

    def __len__(self) -> int:
        return len(self._free)

    def acquire(self) -> DirEntry:
        if self._free:
            self.recycled += 1
            return self._free.pop()
        self.allocated += 1
        return DirEntry()

    def release(self, entry: DirEntry) -> None:
        """Reset ``entry`` in place and return it to the free list.

        The reader dict is cleared, not replaced, and the wait queue
        (``None`` or an empty deque) is kept, so their backing
        allocations survive the round trip.
        """
        if entry.blocked or entry.waitq:
            raise AssertionError("released a busy directory entry")
        entry.state = DirState.I
        entry.sharers = 0
        entry.owner = None
        entry.value = 0
        entry.in_l2 = False
        entry.service = None
        entry.ud = None
        entry.tx_readers.clear()
        self._free.append(entry)


class DirStore:
    """Address-interned flat store for one directory bank."""

    __slots__ = ("pool", "_slots", "_live", "_value", "_in_l2")

    def __init__(self, pool: Optional[DirEntryPool] = None) -> None:
        self.pool = pool if pool is not None else DirEntryPool()
        self._slots: Dict[int, int] = {}  # addr -> interned slot
        self._live: List[Optional[DirEntry]] = []  # slot -> entry | None
        self._value: List[int] = []  # slot -> retired home value
        self._in_l2: List[bool] = []  # slot -> retired L2-residency bit

    def __len__(self) -> int:
        """Interned (ever-touched) address count."""
        return len(self._slots)

    @property
    def live_count(self) -> int:
        return sum(1 for e in self._live if e is not None)

    def obtain(self, addr: int) -> DirEntry:
        """Get-or-create the live entry for ``addr``.

        A retired address revives from the pool with its preserved
        value/in-L2 bits; an unseen address interns a new slot.
        """
        slot = self._slots.get(addr)
        if slot is None:
            self._slots[addr] = len(self._live)
            entry = self.pool.acquire()
            self._live.append(entry)
            self._value.append(0)
            self._in_l2.append(False)
            return entry
        entry = self._live[slot]
        if entry is None:
            entry = self.pool.acquire()
            entry.value = self._value[slot]
            entry.in_l2 = self._in_l2[slot]
            self._live[slot] = entry
        return entry

    def lookup(self, addr: int) -> Optional[DirEntry]:
        """The live entry for ``addr``, without creating or reviving."""
        slot = self._slots.get(addr)
        return None if slot is None else self._live[slot]

    def retire(self, addr: int, entry: DirEntry) -> bool:
        """Return ``addr``'s entry to the pool if ``entry`` is still its
        live entry.

        Idempotent by identity check: the unblock drain loop and the
        writeback path can both observe the same settled entry, and
        only the first call retires it.  The caller guarantees the
        settled-I invariant (checked here, also under ``python -O``).
        """
        slot = self._slots.get(addr)
        if slot is None or self._live[slot] is not entry:
            return False
        if (entry.state is not DirState.I or entry.blocked
                or entry.waitq or entry.service is not None):
            raise AssertionError(
                f"retiring unsettled entry for addr {addr}")
        self._value[slot] = entry.value
        self._in_l2[slot] = entry.in_l2
        self._live[slot] = None
        self.pool.release(entry)
        return True


class EntriesView:
    """Mapping-shaped view of a :class:`DirStore`.

    Presents the pre-pool ``Dict[int, DirEntry]`` interface: item
    access revives retired lines (matching the old dict, where settled
    entries simply stayed), iteration covers every interned address.
    Audits, the sanitizer and the tests read through this; the hot
    path inside the directory bypasses it.
    """

    __slots__ = ("_store",)

    def __init__(self, store: DirStore) -> None:
        self._store = store

    def __getitem__(self, addr: int) -> DirEntry:
        store = self._store
        if addr not in store._slots:
            raise KeyError(addr)
        return store.obtain(addr)

    def get(self, addr: int, default=None):
        store = self._store
        if addr not in store._slots:
            return default
        return store.obtain(addr)

    def __contains__(self, addr: int) -> bool:
        return addr in self._store._slots

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[int]:
        return iter(self._store._slots)

    def keys(self):
        return self._store._slots.keys()

    def values(self) -> Iterator[DirEntry]:
        store = self._store
        for addr in store._slots:
            yield store.obtain(addr)

    def items(self) -> Iterator[Tuple[int, DirEntry]]:
        store = self._store
        for addr in store._slots:
            yield addr, store.obtain(addr)
