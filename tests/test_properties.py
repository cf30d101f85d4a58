"""Property-based tests (hypothesis) for core data structures and
protocol invariants."""

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bitset import mask_of
from repro.core.pbuffer import PBuffer
from repro.core.puno import DirectoryPUNO
from repro.core.txlb import TxLB
from repro.core.udpointer import recompute_ud
from repro.coherence.cache import L1Cache
from repro.coherence.states import L1State
from repro.network.message import Message, MessageType, TxTag
from repro.network.topology import Mesh
from repro.sim.config import CacheConfig, NetworkConfig, PUNOConfig, \
    small_config
from repro.sim.engine import Simulator
from repro.sim.stats import Stats
from repro.system import System
from repro.workloads.base import Workload
from repro.workloads.synthetic import make_synthetic_workload


# ---------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=60))
def test_engine_executes_in_time_order(delays):
    sim = Simulator()
    seen = []
    for d in delays:
        sim.schedule(d, lambda d=d: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
    assert sim.now == max(delays)


# ---------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------

@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_mesh_route_properties(w, h, data):
    mesh = Mesh(NetworkConfig(mesh_width=w, mesh_height=h))
    src = data.draw(st.integers(0, w * h - 1))
    dst = data.draw(st.integers(0, w * h - 1))
    path = mesh.route(src, dst)
    assert path[0] == src and path[-1] == dst
    assert len(path) == mesh.hops(src, dst) + 1
    assert len(set(path)) == len(path)  # DOR never revisits a router


# ---------------------------------------------------------------------
# TxTag ordering
# ---------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 15)),
                min_size=2, max_size=10, unique=True))
def test_txtag_total_order(pairs):
    tags = [TxTag(node=n, timestamp=ts) for ts, n in pairs]
    # antisymmetry: exactly one of a<b, b<a for distinct tags
    for a in tags:
        for b in tags:
            if (a.timestamp, a.node) == (b.timestamp, b.node):
                continue
            assert a.older_than(b) != b.older_than(a)
    # transitivity via sort stability
    key = lambda t: (t.timestamp, t.node)
    s = sorted(tags, key=key)
    for x, y in zip(s, s[1:]):
        assert not y.older_than(x)


# ---------------------------------------------------------------------
# TxLB: formula (1) keeps the estimate inside observed bounds
# ---------------------------------------------------------------------

@given(st.lists(st.integers(1, 10_000), min_size=1, max_size=50))
def test_txlb_estimate_bounded_by_history(lengths):
    t = TxLB()
    for L in lengths:
        t.update(0, L)
    est = t.average_length(0)
    assert min(lengths) <= est <= max(lengths)


@given(st.lists(st.integers(1, 1000), min_size=1, max_size=30),
       st.integers(0, 2000))
def test_txlb_remaining_nonnegative(lengths, elapsed):
    t = TxLB()
    for L in lengths:
        t.update(0, L)
    assert t.estimate_remaining(0, elapsed) >= 0


@given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 500)),
                min_size=1, max_size=100), st.integers(2, 8))
def test_txlb_capacity_never_exceeded(updates, cap):
    t = TxLB(capacity=cap)
    for sid, L in updates:
        t.update(sid, L)
        assert len(t) <= cap
    # every static id ever seen still has an estimate (soft fallback)
    for sid, _ in updates:
        assert t.average_length(sid) is not None


# ---------------------------------------------------------------------
# P-Buffer validity automaton
# ---------------------------------------------------------------------

@given(st.lists(st.sampled_from(["update", "decay", "invalidate"]),
                max_size=60))
def test_pbuffer_validity_stays_in_range(ops):
    pb = PBuffer(4, PUNOConfig())
    for op in ops:
        if op == "update":
            pb.update(1, 10)
        elif op == "decay":
            pb.decay()
        else:
            pb.invalidate(1)
        v = pb.validity(1)
        assert 0 <= v <= 3
        # usable implies a priority is recorded
        if pb.usable(1):
            assert pb.priority(1) is not None


@given(st.lists(st.one_of(
    st.tuples(st.just("update"), st.integers(0, 7), st.integers(0, 5000)),
    st.tuples(st.just("decay"), st.just(0), st.just(0)),
    st.tuples(st.just("invalidate"), st.integers(0, 7), st.just(0)),
), max_size=120))
def test_pbuffer_matches_reference_model(ops):
    """The 2-bit validity automaton against an exact reference model:
    +2 from zero, +1 otherwise, saturate at validity_max, decay -1
    floored at 0, invalidate clears both fields (Fig. 5)."""
    cfg = PUNOConfig()
    pb = PBuffer(8, cfg)
    ref_v = [0] * 8
    ref_p = [None] * 8
    for op, node, ts in ops:
        if op == "update":
            ref_v[node] = min(ref_v[node] + (2 if ref_v[node] == 0 else 1),
                              cfg.validity_max)
            ref_p[node] = ts
            pb.update(node, ts)
        elif op == "decay":
            ref_v = [max(0, v - 1) for v in ref_v]
            pb.decay()
        else:
            ref_v[node] = 0
            ref_p[node] = None
            pb.invalidate(node)
        for n in range(8):
            assert pb.validity(n) == ref_v[n]
            assert pb.priority(n) == ref_p[n]
            # prediction gate: usable iff fresh AND a priority exists
            expected_usable = (ref_p[n] is not None
                               and ref_v[n] > cfg.validity_threshold)
            assert pb.usable(n) == expected_usable
    assert pb.updates == sum(1 for o in ops if o[0] == "update")
    assert pb.decays == sum(1 for o in ops if o[0] == "decay")


@given(st.lists(st.integers(1, 1_000_000), max_size=40),
       st.floats(0.1, 8.0), st.booleans())
def test_adaptive_timeout_period_stays_bounded(hints, scale, adaptive):
    """The rollover period is always inside [min_timeout, max_timeout]
    whatever length hints arrive — and exactly fixed_timeout when
    adaptivity is ablated."""
    cfg = PUNOConfig(adaptive_timeout=adaptive, timeout_scale=scale)
    unit = DirectoryPUNO(Simulator(), 8, cfg, Stats(8))
    for i, hint in enumerate(hints):
        msg = Message(MessageType.GETX, addr=i % 4, src=i % 8, dst=0,
                      tx=TxTag(node=i % 8, timestamp=10 * i,
                               length_hint=hint))
        unit.observe_request(msg)
        period = unit._timeout_period()
        if adaptive:
            assert cfg.min_timeout <= period <= cfg.max_timeout
        else:
            assert period == cfg.fixed_timeout
    unit.stop()


def _reference_ud(mask, pb, readers, now):
    """The UD pointer by definition: the smallest (timestamp, node)
    over sharers whose entry is usable and, with the reader-epoch
    filter, whose recorded read epoch matches their priority."""
    keys = [(pb.priority(n), n) for n in range(pb.num_nodes)
            if mask >> n & 1 and pb.usable(n, now)
            and (readers is None or readers.get(n) == pb.priority(n))]
    return min(keys)[1] if keys else None


@settings(deadline=None)
@given(st.integers(0, 5000), st.lists(st.one_of(
    st.tuples(st.just("update"), st.integers(0, 7), st.integers(0, 3000),
              st.integers(0, 300)),
    st.tuples(st.just("decay"), st.integers(1, 8), st.just(0), st.just(0)),
    st.tuples(st.just("invalidate"), st.integers(0, 7), st.just(0),
              st.just(0)),
), max_size=80), st.integers(0, 255), st.data())
def test_recompute_ud_matches_usable_reference(prior_decays, ops, mask,
                                               data):
    """The UD recomputation inlines the P-Buffer's lazy validity test
    (expiry against threshold + decays); it must pick exactly the
    sharer the public ``usable`` predicate picks — after runs of
    decays longer than the counter is wide and on a buffer that has
    already seen thousands of decays — while the counters themselves
    follow the eager Fig. 5 automaton."""
    cfg = PUNOConfig(recency_window=64)
    pb = PBuffer(8, cfg)
    for _ in range(prior_decays):
        pb.decay()
    ref_v = [0] * 8
    now = 0
    for op, node, ts, hint in ops:
        now += 7
        if op == "update":
            ref_v[node] = min(ref_v[node] + (2 if ref_v[node] == 0 else 1),
                              cfg.validity_max)
            pb.update(node, ts, hint, now)
        elif op == "decay":
            for _ in range(node):
                ref_v = [max(0, v - 1) for v in ref_v]
                pb.decay()
        else:
            ref_v[node] = 0
            pb.invalidate(node)
        assert [pb.validity(n) for n in range(8)] == ref_v
        for at in (None, now):
            assert (recompute_ud(mask, pb, None, at)
                    == _reference_ud(mask, pb, None, at))
            for n in range(8):  # every entry's predicate on its own
                assert (recompute_ud(1 << n, pb, None, at)
                        == (n if pb.usable(n, at) else None))
    # reader epochs: per sharer absent, matching or stale
    readers = {}
    for n in range(8):
        kind = data.draw(st.sampled_from(["absent", "match", "stale"]))
        if kind == "match" and pb.priority(n) is not None:
            readers[n] = pb.priority(n)
        elif kind == "stale":
            readers[n] = -1
    at = data.draw(st.one_of(st.none(), st.integers(now, now + 5000)))
    expected = _reference_ud(mask, pb, readers, at)
    assert recompute_ud(mask, pb, readers, at) == expected
    sharers = [n for n in range(8) if mask >> n & 1]
    assert recompute_ud(sharers, pb, readers, at) == expected


@settings(deadline=None)
@given(st.integers(0, 300), st.lists(st.integers(0, 255), max_size=60),
       st.integers(64, 255), st.data())
def test_recompute_ud_matches_reference_wide(prior_decays, sharers, high,
                                            data):
    """The same oracle on a 256-entry P-Buffer: sharer masks wider than
    one 64-bit word, and reader dicts whose keys include non-sharers
    and ids above 63.  With readers, the recomputation walks only the
    readers that share; its pick must still be the reference's."""
    cfg = PUNOConfig(recency_window=64, pbuffer_entries=256)
    pb = PBuffer(256, cfg)
    for _ in range(prior_decays):
        pb.decay()
    mask = mask_of(sharers) | 1 << high
    members = sorted(set(sharers) | {high})
    now = 0
    for _ in range(data.draw(st.integers(0, 40))):
        now += 7
        op = data.draw(st.sampled_from(["update", "update", "decay",
                                        "invalidate"]))
        node = data.draw(st.one_of(st.sampled_from(members),
                                   st.integers(0, 255)))
        if op == "update":
            pb.update(node, data.draw(st.integers(0, 3000)),
                      data.draw(st.integers(0, 300)), now)
        elif op == "decay":
            pb.decay()
        else:
            pb.invalidate(node)
    readers = {}
    for node in data.draw(st.lists(st.one_of(st.sampled_from(members),
                                             st.integers(0, 255)),
                                   max_size=40)):
        kind = data.draw(st.sampled_from(["match", "stale", "other"]))
        if kind == "match" and pb.priority(node) is not None:
            readers[node] = pb.priority(node)
        elif kind == "stale":
            readers[node] = -1
        else:
            readers[node] = data.draw(st.integers(0, 3000))
    at = data.draw(st.one_of(st.none(), st.integers(now, now + 5000)))
    for tx_readers in (None, readers):
        expected = _reference_ud(mask, pb, tx_readers, at)
        assert recompute_ud(mask, pb, tx_readers, at) == expected
        assert recompute_ud(members, pb, tx_readers, at) == expected


@given(st.lists(st.integers(1, 10_000), min_size=1, max_size=40))
def test_txlb_formula_one_exact(lengths):
    """Formula (1) to the bit: len_new = (len_prev + dyn_len) / 2,
    seeded by the first observation."""
    t = TxLB()
    ref = None
    for L in lengths:
        ref = float(L) if ref is None else (ref + L) / 2.0
        assert t.update(0, L) == ref
    assert t.average_length(0) == int(ref)
    # recency dominance: the EMA sits within dyn_len/2 of the last
    # instance's mean with its predecessor, i.e. the last two samples
    # contribute >= 3/4 of the estimate's mass
    if len(lengths) >= 2:
        tail = (lengths[-2] / 4 + lengths[-1] / 2)
        assert abs(ref - tail) <= max(lengths[:-1]) / 4


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 500)),
                min_size=1, max_size=120), st.integers(1, 6))
def test_txlb_eviction_preserves_history_exactly(updates, cap):
    """LRU overflow moves entries to the software map without changing
    their value: the estimate sequence is identical to an unbounded
    table's."""
    bounded = TxLB(capacity=cap)
    unbounded = TxLB(capacity=10 ** 9)
    for sid, L in updates:
        assert bounded.update(sid, L) == unbounded.update(sid, L)
        assert len(bounded) <= cap
    for sid, _ in updates:
        assert bounded.average_length(sid) == unbounded.average_length(sid)
    distinct = len({sid for sid, _ in updates})
    assert bounded.overflows == (0 if distinct <= cap else bounded.overflows)
    if distinct <= cap:
        assert bounded.overflows == 0


# ---------------------------------------------------------------------
# L1 cache invariants
# ---------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["install", "invalidate",
                                           "pin", "unpin"]),
                          st.integers(0, 15)), max_size=80))
def test_cache_never_overfills(ops):
    cache = L1Cache(CacheConfig(size_bytes=4 * 64, ways=2))
    pinned = set()
    for op, addr in ops:
        if op == "install":
            try:
                cache.install(addr, L1State.S, 0)
            except Exception:
                pass
        elif op == "invalidate":
            cache.invalidate(addr)
            pinned.discard(addr)
        elif op == "pin":
            if cache.resident(addr):
                cache.pin(addr, 2)
                pinned.add(addr)
        else:
            cache.unpin_all([addr])
            pinned.discard(addr)
        # geometry invariant: no set exceeds its ways
        per_set = Counter(line.addr % cache.config.num_sets
                          for line in cache.lines())
        assert max(per_set.values(), default=0) <= cache.config.ways
        # pinned lines stay resident
        for a in pinned:
            assert cache.resident(a)


# ---------------------------------------------------------------------
# end-to-end atomicity: random contended workloads audit clean
# ---------------------------------------------------------------------

@settings(deadline=None, max_examples=12,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000), st.integers(2, 10), st.integers(1, 3),
       st.booleans(), st.sampled_from(["baseline", "backoff", "rmw",
                                       "puno"]))
def test_random_workload_atomicity(seed, shared_lines, writes, rmw, cm):
    wl = make_synthetic_workload(
        num_nodes=4, instances=5, shared_lines=shared_lines,
        tx_reads=max(writes, 3), tx_writes=writes,
        write_in_read_set=not rmw, rmw=rmw, seed=seed)
    system = System(small_config(4, seed=seed), wl, cm)
    # run() performs the coherence + value audits; they raise on any
    # violation of single-writer/multi-reader or atomicity
    result = system.run(max_cycles=10_000_000)
    assert result.stats.tx_committed == wl.total_instances()
    # every committed increment is in memory, none lost or duplicated
    total = sum(system.global_value(a)
                for d in system.directories for a in d.entries)
    assert total == sum(n.committed_increments for n in system.nodes)
