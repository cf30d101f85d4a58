"""Tests for the L1 cache model."""

from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.cache import CacheLine, CapacityError, L1Cache
from repro.coherence.states import L1State
from repro.sim.config import CacheConfig


@pytest.fixture
def tiny():
    """2 sets x 2 ways, so eviction is easy to trigger."""
    return L1Cache(CacheConfig(size_bytes=4 * 64, ways=2))


def test_install_and_lookup(tiny):
    line, evicted = tiny.install(0, L1State.S, 7)
    assert evicted is None
    got = tiny.lookup(0)
    assert got is line and got.value == 7 and got.state is L1State.S


def test_miss_returns_none(tiny):
    assert tiny.lookup(42) is None


def test_update_in_place(tiny):
    tiny.install(0, L1State.S, 1)
    line, evicted = tiny.install(0, L1State.M, 2)
    assert evicted is None
    assert line.state is L1State.M and line.value == 2
    assert len(tiny) == 1


def test_lru_eviction(tiny):
    # set 0 holds even line addrs (2 sets)
    tiny.install(0, L1State.S, 0)
    tiny.install(2, L1State.S, 0)
    tiny.lookup(0)  # make 0 most recent
    _, evicted = tiny.install(4, L1State.S, 0)
    assert evicted is not None and evicted.addr == 2
    assert tiny.resident(0) and tiny.resident(4) and not tiny.resident(2)


def test_pinned_lines_never_evicted(tiny):
    tiny.install(0, L1State.S, 0)
    tiny.pin(0)
    tiny.install(2, L1State.S, 0)
    _, evicted = tiny.install(4, L1State.S, 0)
    assert evicted.addr == 2  # the unpinned one, despite LRU order


def test_capacity_error_when_all_ways_write_pinned(tiny):
    tiny.install(0, L1State.M, 0)
    tiny.install(2, L1State.M, 0)
    tiny.pin(0, level=2)
    tiny.pin(2, level=2)
    with pytest.raises(CapacityError):
        tiny.install(4, L1State.S, 0)


def test_read_pinned_s_line_is_last_resort_victim(tiny):
    tiny.install(0, L1State.S, 0)
    tiny.install(2, L1State.M, 0)
    tiny.pin(0, level=1)
    tiny.pin(2, level=2)
    _, evicted = tiny.install(4, L1State.S, 0)
    assert evicted is not None and evicted.addr == 0


def test_read_pinned_prefers_s_over_e(tiny):
    tiny.install(0, L1State.E, 0)
    tiny.install(2, L1State.S, 0)
    tiny.pin(0, level=1)
    tiny.pin(2, level=1)
    tiny.lookup(2)  # S line more recently used — still preferred victim
    _, evicted = tiny.install(4, L1State.S, 0)
    assert evicted.addr == 2


def test_pin_strength_only_increases(tiny):
    tiny.install(0, L1State.M, 0)
    tiny.pin(0, level=2)
    tiny.pin(0, level=1)
    assert tiny.lookup(0).pinned == 2


def test_unpin_all_restores_evictability(tiny):
    tiny.install(0, L1State.S, 0)
    tiny.install(2, L1State.S, 0)
    tiny.pin(0, level=2)
    tiny.pin(2, level=2)
    tiny.unpin_all([0, 2])
    line, evicted = tiny.install(4, L1State.S, 0)
    assert evicted is not None


def test_invalidate(tiny):
    tiny.install(0, L1State.M, 9)
    line = tiny.invalidate(0)
    assert line.value == 9
    assert not tiny.resident(0)
    assert tiny.invalidate(0) is None


def test_downgrade(tiny):
    tiny.install(0, L1State.M, 1)
    line = tiny.downgrade(0)
    assert line.state is L1State.S
    assert tiny.downgrade(123) is None


def test_state_of(tiny):
    assert tiny.state_of(0) is L1State.I
    tiny.install(0, L1State.E, 0)
    assert tiny.state_of(0) is L1State.E


def test_states_readable_writable():
    assert not L1State.I.readable
    assert L1State.S.readable and not L1State.S.writable
    assert L1State.E.writable and L1State.M.writable


def test_sets_isolated(tiny):
    """Lines in different sets never evict each other."""
    tiny.install(0, L1State.S, 0)
    tiny.install(2, L1State.S, 0)
    _, evicted = tiny.install(1, L1State.S, 0)  # odd -> other set
    assert evicted is None


def test_lines_iterator_and_len(tiny):
    tiny.install(0, L1State.S, 0)
    tiny.install(1, L1State.S, 0)
    assert len(tiny) == 2
    assert {l.addr for l in tiny.lines()} == {0, 1}


def test_eviction_counter(tiny):
    tiny.install(0, L1State.S, 0)
    tiny.install(2, L1State.S, 0)
    tiny.install(4, L1State.S, 0)
    assert tiny.evictions == 1


# ---------------------------------------------------------------------
# the flat line map vs the eager per-set dicts it replaced
# ---------------------------------------------------------------------

class ReferenceL1Cache:
    """The eager-dict L1 (one dict per set, built up front), kept
    verbatim as the reference the flat-map cache must match op for op,
    evictions and ``lines()`` order included."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets: List[Dict[int, CacheLine]] = [
            {} for _ in range(config.num_sets)
        ]
        self._num_sets = config.num_sets
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _set_for(self, addr: int) -> Dict[int, CacheLine]:
        return self._sets[addr % self._num_sets]

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        line = self._sets[addr % self._num_sets].get(addr)
        if line is not None and touch:
            self._tick += 1
            line.lru = self._tick
        return line

    def install(
        self, addr: int, state: L1State, value: int
    ) -> Tuple[CacheLine, Optional[CacheLine]]:
        cset = self._sets[addr % self._num_sets]
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
        for state in (L1State.S, L1State.E):
            for line in cset.values():
                if line.pinned == 1 and line.state is state:
                    if victim is None or line.lru < victim.lru:
                        victim = line
            if victim is not None:
                return victim
        return victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        return self._sets[addr % self._num_sets].pop(addr, None)

    def downgrade(self, addr: int) -> Optional[CacheLine]:
        line = self._sets[addr % self._num_sets].get(addr)
        if line is not None:
            line.state = L1State.S
        return line

    def pin(self, addr: int, level: int = 1) -> None:
        line = self._sets[addr % self._num_sets].get(addr)
        if line is not None and level > line.pinned:
            line.pinned = level

    def unpin_all(self, addrs) -> None:
        for addr in addrs:
            line = self._set_for(addr).get(addr)
            if line is not None:
                line.pinned = 0

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


def _view(line):
    if line is None:
        return None
    return (line.addr, line.state, line.value, line.pinned, line.lru)


def _apply(cache, op):
    """Run one op; returns a comparable result (lines as tuples)."""
    name, addr, arg = op
    if name == "install":
        state, value = arg
        try:
            line, evicted = cache.install(addr, state, value)
        except CapacityError as exc:
            return ("capacity", exc.args)
        return _view(line), _view(evicted)
    if name == "lookup":
        return _view(cache.lookup(addr, touch=arg))
    if name == "invalidate":
        return _view(cache.invalidate(addr))
    if name == "downgrade":
        return _view(cache.downgrade(addr))
    if name == "pin":
        return cache.pin(addr, arg)
    if name == "unpin_all":
        return cache.unpin_all(arg)
    if name == "lines":
        return [_view(line) for line in cache.lines()]
    if name == "len":
        return len(cache)
    if name == "resident":
        return cache.resident(addr)
    return cache.state_of(addr)


ADDRS = st.integers(0, 40)
CACHE_OPS = st.one_of(
    st.tuples(st.just("install"), ADDRS,
              st.tuples(st.sampled_from([L1State.S, L1State.E, L1State.M]),
                        st.integers(0, 9))),
    st.tuples(st.just("lookup"), ADDRS, st.booleans()),
    st.tuples(st.sampled_from(["invalidate", "downgrade", "lines", "len",
                               "resident", "state_of"]),
              ADDRS, st.none()),
    st.tuples(st.just("pin"), ADDRS, st.sampled_from([1, 2])),
    st.tuples(st.just("unpin_all"), st.none(), st.lists(ADDRS, max_size=6)),
)
#: (size_bytes, ways) with 64-byte lines: 1-8 sets of 1-4 ways.
GEOMETRIES = st.sampled_from([(64, 1), (2 * 64, 1), (4 * 64, 2),
                              (8 * 64, 2), (6 * 64, 3), (32 * 64, 4)])


def _set_occupancy(cache) -> Counter:
    """Lines per set index, computed from ``lines()`` alone."""
    return Counter(line.addr % cache.config.num_sets for line in cache.lines())


@settings(max_examples=200, deadline=None)
@given(GEOMETRIES, st.lists(CACHE_OPS, max_size=80))
def test_flat_map_matches_eager_reference(geometry, ops):
    size, ways = geometry
    config = CacheConfig(size_bytes=size, ways=ways)
    flat, ref = L1Cache(config), ReferenceL1Cache(config)
    for op in ops:
        assert _apply(flat, op) == _apply(ref, op), op
        assert max(_set_occupancy(flat).values(), default=0) <= ways
    assert [_view(x) for x in flat.lines()] == \
        [_view(x) for x in ref.lines()]
    assert flat.evictions == ref.evictions and len(flat) == len(ref)


def test_untouched_cache_holds_no_lines():
    cache = L1Cache(CacheConfig())
    assert len(cache) == 0 and list(cache.lines()) == []
    assert cache.invalidate(7) is None and cache.downgrade(7) is None
    cache.pin(7, 2)
    cache.unpin_all([7])
    assert not cache.resident(7) and cache.state_of(7) is L1State.I
    assert len(cache) == 0 and list(cache.lines()) == []
    cache.install(7, L1State.S, 1)
    assert [line.addr for line in cache.lines()] == [7]


def test_ways_beyond_occupancy_byte_rejected():
    """Per-set occupancy is one byte: a wider set is refused up front,
    by an explicit raise that survives ``python -O``."""
    with pytest.raises(ValueError, match="256 exceeds 255 ways"):
        L1Cache(CacheConfig(size_bytes=256 * 64, ways=256))
    cache = L1Cache(CacheConfig(size_bytes=255 * 64, ways=255))
    for addr in range(255):
        cache.install(addr, L1State.S, 0)
    assert _set_occupancy(cache) == {0: 255}
    _, evicted = cache.install(255, L1State.S, 0)
    assert evicted is not None and evicted.addr == 0
