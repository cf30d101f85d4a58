"""Pooled directory storage: free-list recycling, address interning,
retire/revive semantics, the mapping view, and the end-to-end
contracts (zero-alloc steady state, digest neutrality, audit
visibility of retired lines).
"""

import pytest

from repro.coherence.dirstore import (
    DirEntry,
    DirEntryPool,
    DirStore,
    EntriesView,
)
from repro.coherence.states import DirState


# ---------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------

def test_pool_acquire_release_recycles():
    pool = DirEntryPool()
    a = pool.acquire()
    assert pool.allocated == 1 and pool.recycled == 0
    pool.release(a)
    assert len(pool) == 1
    b = pool.acquire()
    assert b is a  # same object back
    assert pool.allocated == 1 and pool.recycled == 1


def test_release_resets_entry_in_place():
    pool = DirEntryPool()
    e = pool.acquire()
    e.state = DirState.M
    e.sharers = 0b1011
    e.owner = 3
    e.value = 42
    e.in_l2 = True
    e.ud = 7
    e.tx_readers[5] = 100
    waitq, readers = e.waitq, e.tx_readers
    pool.release(e)
    assert e.state is DirState.I
    assert e.sharers == 0 and e.owner is None
    assert e.value == 0 and e.in_l2 is False
    assert e.ud is None and not e.tx_readers
    # containers cleared, not replaced — their allocations survive
    assert e.waitq is waitq and e.tx_readers is readers


def test_release_busy_entry_asserts():
    pool = DirEntryPool()
    e = pool.acquire()
    e.blocked = True
    with pytest.raises(AssertionError, match="busy"):
        pool.release(e)


def test_wait_queue_is_created_by_the_first_waiter_and_kept():
    """An entry carries no wait queue until a request arrives while it
    is blocked; the queue then stays with the entry, empty, through the
    drain and a pool round trip."""
    from repro.coherence.directory import DirectoryController
    from repro.network.message import Message, MessageType
    from repro.sim.config import small_config
    from repro.sim.engine import Simulator
    from repro.sim.stats import Stats
    from repro.testing import RecordingNetwork

    sim, stats = Simulator(), Stats(4)
    d = DirectoryController(sim, 0, small_config(4),
                            RecordingNetwork(sim, stats), stats)

    def gets(src):
        return Message(MessageType.GETS, 0, src, 0, requester=src,
                       req_id=src)

    d.receive(gets(1))  # cold fetch: blocks the entry, nobody waits
    entry = d.store.lookup(0)
    assert entry.blocked and entry.waitq is None
    d.receive(gets(2))
    waitq = entry.waitq
    assert [m.requester for m, _ in waitq] == [2]
    sim.run()  # the fetch completes and the waiter is drained
    assert entry.waitq is waitq and not waitq
    entry.blocked, entry.service = False, None
    d.store.pool.release(entry)
    assert d.store.pool.acquire() is entry and entry.waitq is waitq


# ---------------------------------------------------------------------
# store
# ---------------------------------------------------------------------

def test_obtain_interns_and_returns_same_entry():
    store = DirStore()
    e = store.obtain(0x40)
    assert store.obtain(0x40) is e
    assert len(store) == 1 and store.live_count == 1
    assert store.lookup(0x40) is e
    assert store.lookup(0x80) is None


def test_retire_preserves_value_and_revives():
    store = DirStore()
    e = store.obtain(0x40)
    e.value = 99
    e.in_l2 = True
    assert store.retire(0x40, e)
    assert store.live_count == 0
    assert len(store) == 1  # still interned
    assert store.lookup(0x40) is None  # lookup does not revive
    revived = store.obtain(0x40)
    assert revived.value == 99 and revived.in_l2 is True
    assert revived.state is DirState.I and revived.sharers == 0


def test_retire_is_identity_checked_and_idempotent():
    store = DirStore()
    e = store.obtain(0x40)
    assert store.retire(0x40, e)
    assert not store.retire(0x40, e)  # second call: no longer live
    other = store.obtain(0x40)
    stale = DirEntry()
    assert not store.retire(0x40, stale)  # wrong object: refused
    assert store.lookup(0x40) is other
    assert not store.retire(0x80, e)  # never-interned address


def test_retire_unsettled_entry_asserts():
    store = DirStore()
    e = store.obtain(0x40)
    e.state = DirState.S
    with pytest.raises(AssertionError, match="unsettled"):
        store.retire(0x40, e)


def test_shared_pool_recycles_across_banks():
    """One entry retired at one bank is the next obtained at another —
    the zero-alloc steady state the pool exists for."""
    pool = DirEntryPool()
    bank_a, bank_b = DirStore(pool), DirStore(pool)
    e = bank_a.obtain(0x40)
    bank_a.retire(0x40, e)
    assert bank_b.obtain(0x1000) is e
    assert pool.allocated == 1 and pool.recycled == 1


# ---------------------------------------------------------------------
# mapping view
# ---------------------------------------------------------------------

def test_entries_view_mapping_interface():
    store = DirStore()
    view = EntriesView(store)
    e1 = store.obtain(0x40)
    e2 = store.obtain(0x80)
    assert view[0x40] is e1
    assert view.get(0x80) is e2
    assert view.get(0xC0) is None
    with pytest.raises(KeyError):
        view[0xC0]
    assert 0x40 in view and 0xC0 not in view
    assert len(view) == 2
    assert sorted(view) == sorted(view.keys()) == [0x40, 0x80]
    assert dict(view.items()) == {0x40: e1, 0x80: e2}
    assert set(view.values()) == {e1, e2}


def test_entries_view_revives_retired_lines():
    """Audits read retired lines through the view exactly as the old
    plain dict kept them: value and L2 bit intact, state I."""
    store = DirStore()
    view = EntriesView(store)
    e = store.obtain(0x40)
    e.value = 7
    store.retire(0x40, e)
    assert 0x40 in view  # iteration/membership span interned addrs
    revived = view[0x40]
    assert revived.value == 7 and revived.state is DirState.I
    assert store.live_count == 1  # access revived it


# ---------------------------------------------------------------------
# end to end: a pooled run recycles and stays audit-clean
# ---------------------------------------------------------------------

def _churn_workload(cfg, window=8, rounds=6):
    """Node 0 rewrites ``window`` lines that all map to one L1 set
    (addr stride = num_sets), so every install past the way count
    evicts a committed M line -> writeback PUT -> directory state I ->
    retire; the next round revives the same lines from the pool."""
    from repro.workloads.base import Gap, TxInstance, TxOp, Workload

    sets = cfg.cache.num_sets
    addrs = [1 + k * sets for k in range(window)]
    prog, iid = [], 0
    for _ in range(rounds):
        for a in addrs:
            prog.append(TxInstance(static_id=0, ops=[TxOp(True, a)],
                                   instance_id=iid))
            iid += 1
            prog.append(Gap(50))
    idle = [[Gap(10)] for _ in range(cfg.num_nodes - 1)]
    return Workload("churn", [prog] + idle, num_static_txs=1)


def test_unsanitized_run_recycles_entries():
    """Zero-alloc steady state: an eviction-churn run services every
    revived line from the pool instead of allocating."""
    from repro.sim.config import scaled_config
    from repro.system import System

    cfg = scaled_config(16, seed=1)
    window, rounds = 8, 6
    wl = _churn_workload(cfg, window=window, rounds=rounds)
    system = System(cfg, wl, "baseline")
    result = system.run()  # run() audits coherence + values at the end
    assert result.stats.tx_committed == window * rounds
    pool = system.dir_pool
    # round 1 allocates the window; every later revival recycles
    assert pool.allocated == window
    assert pool.recycled > window * (rounds - 2), (
        f"steady state kept allocating: {pool.allocated} allocs, "
        f"{pool.recycled} recycles")
    live = sum(d.store.live_count for d in system.directories)
    interned = sum(len(d.store) for d in system.directories)
    assert live <= interned == window


def test_sanitized_run_never_retires():
    """With the sanitizer attached retirement is disabled (its deferred
    line checks must find every entry), so live == interned."""
    from repro.sim.config import scaled_config
    from repro.system import System
    from repro.workloads.families import make_hotspot_workload

    wl = make_hotspot_workload(num_nodes=16, scale=0.1, seed=0)
    system = System(scaled_config(16, seed=1), wl, "baseline",
                    sanitize=True)
    system.run()
    for directory in system.directories:
        store = directory.store
        assert store.live_count == len(store)


def test_pooled_run_digest_matches_unpooled_semantics(monkeypatch):
    """Retirement on vs off (a store that never retires behaves like
    the pre-pool plain dict) produces identical snapshot digests —
    pooling is purely a memory optimization."""
    from repro.sim.config import scaled_config
    from repro.system import System
    from repro.workloads.families import make_hotspot_workload

    def run_digest(retire: bool) -> str:
        if not retire:
            monkeypatch.setattr(DirStore, "retire",
                                lambda self, addr, entry: False)
        else:
            monkeypatch.undo()
        wl = make_hotspot_workload(num_nodes=16, scale=0.1, seed=0)
        system = System(scaled_config(16, seed=1), wl, "baseline")
        system.run()
        return system.stats.snapshot_digest()

    assert run_digest(True) == run_digest(False)
