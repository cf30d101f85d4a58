"""Tests for the synthetic contention workload families."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import scaled_config
from repro.sim.resultcache import workload_fingerprint
from repro.system import run_workload
from repro.workloads import FAMILIES, make_family_workload
from repro.workloads.base import TxInstance
from repro.workloads.families import (
    make_hotspot_workload,
    make_prodcons_workload,
    make_rw_mix_workload,
    make_zipf_workload,
    zipf_cdf,
    zipf_ranks,
)


def tx_instances(workload, node):
    return [it for it in workload.programs[node]
            if isinstance(it, TxInstance)]


# ---------------------------------------------------------------------
# registry + construction
# ---------------------------------------------------------------------

def test_registry_contents():
    assert set(FAMILIES) == {"hotspot", "prodcons", "zipf", "rw_mix"}
    for name, meta in FAMILIES.items():
        assert meta.name == name
        assert meta.description
        wl = meta.builder(num_nodes=4, scale=0.25, seed=1)
        assert len(wl.programs) == 4
        assert wl.total_instances() > 0


def test_unknown_family_rejected():
    with pytest.raises(KeyError, match="unknown workload family"):
        make_family_workload("quantum")


def test_make_family_passes_params():
    wl = make_family_workload("hotspot", num_nodes=8, scale=1.0,
                              hot_lines=2, instances=6)
    assert wl.params["hot_lines"] == 2
    assert wl.params["instances"] == 6
    assert len(tx_instances(wl, 0)) == 6


def test_builders_are_deterministic_per_seed():
    for name in FAMILIES:
        a = make_family_workload(name, num_nodes=8, scale=0.5, seed=3)
        b = make_family_workload(name, num_nodes=8, scale=0.5, seed=3)
        c = make_family_workload(name, num_nodes=8, scale=0.5, seed=4)
        assert repr(a.programs) == repr(b.programs)
        assert repr(a.programs) != repr(c.programs)


def test_scale_multiplies_instances_with_floor_one():
    big = make_hotspot_workload(num_nodes=4, scale=1.0, instances=16)
    small = make_hotspot_workload(num_nodes=4, scale=0.25, instances=16)
    tiny = make_hotspot_workload(num_nodes=4, scale=0.001, instances=16)
    assert len(tx_instances(big, 0)) == 16
    assert len(tx_instances(small, 0)) == 4
    assert len(tx_instances(tiny, 0)) == 1  # floor, never empty


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_hotspot_workload(hot_lines=0)
    with pytest.raises(ValueError):
        make_prodcons_workload(slots=0)
    with pytest.raises(ValueError):
        make_zipf_workload(tx_reads=2, tx_writes=3)
    with pytest.raises(ValueError):
        make_rw_mix_workload(writer_fraction=0.8, scanner_fraction=0.5)


# ---------------------------------------------------------------------
# structural properties of each family
# ---------------------------------------------------------------------

def test_hotspot_writes_confined_to_hot_region():
    wl = make_hotspot_workload(num_nodes=8, hot_lines=3, instances=4)
    writes = {op.addr for n in range(8) for tx in tx_instances(wl, n)
              for op in tx.ops if op.is_write}
    assert len(writes) <= 3  # every write lands on a hot line
    assert wl.num_static_txs == 1


def test_prodcons_conflicts_are_neighbourwise():
    n_nodes = 6
    wl = make_prodcons_workload(num_nodes=n_nodes, slots=2, instances=3)
    assert wl.num_static_txs == 2
    write_sets = []  # addresses node i writes (its own buffer)
    for n in range(n_nodes):
        write_sets.append({op.addr for tx in tx_instances(wl, n)
                           for op in tx.ops if op.is_write})
    for n in range(n_nodes):
        consumed = {op.addr for tx in tx_instances(wl, n)
                    if tx.static_id == 1 for op in tx.ops
                    if op.addr in write_sets[(n - 1) % n_nodes]}
        assert consumed, f"node {n} never reads its upstream buffer"
        # and never touches any non-neighbour's buffer
        for other in range(n_nodes):
            if other in (n, (n - 1) % n_nodes):
                continue
            assert not write_sets[other] & {
                op.addr for tx in tx_instances(wl, n) for op in tx.ops}


def test_zipf_writes_concentrate_on_head():
    wl = make_zipf_workload(num_nodes=16, lines=64, instances=8,
                            tx_writes=1, seed=2)
    from collections import Counter
    write_counts = Counter(op.addr for n in range(16)
                           for tx in tx_instances(wl, n)
                           for op in tx.ops if op.is_write)
    read_counts = Counter(op.addr for n in range(16)
                          for tx in tx_instances(wl, n)
                          for op in tx.ops)
    # the hottest line dominates: it gets more traffic than the median
    # line by a wide margin (head-heavy skew)
    top = read_counts.most_common(1)[0][1]
    median = sorted(read_counts.values())[len(read_counts) // 2]
    assert top >= 4 * median
    assert write_counts  # RMW heads exist


def test_zipf_ranks_distinct_and_skewed():
    rng = random.Random(7)
    cdf = zipf_cdf(100, 1.2)
    ranks = zipf_ranks(rng, cdf, 20)
    assert len(ranks) == len(set(ranks)) == 20
    assert all(0 <= r < 100 for r in ranks)
    # skew: across many draws rank 0 appears far more than rank 50
    hits = [0, 0]
    for i in range(300):
        draw = zipf_ranks(random.Random(i), cdf, 5)
        hits[0] += 0 in draw
        hits[1] += 50 in draw
    assert hits[0] > 3 * hits[1]


# ---------------------------------------------------------------------
# sampler oracle: the linear-CDF, hand-searched sampler the bisecting
# one replaced, kept verbatim as the reference
# ---------------------------------------------------------------------

def reference_zipf_ranks(rng, n, s, k):
    weights = [1.0 / (r + 1) ** s for r in range(n)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    picked = []
    taken = set()
    for _ in range(min(k, n)):
        u = rng.random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        r = lo
        while r in taken:
            r = (r + 1) % n
        taken.add(r)
        picked.append(r)
    return picked


@st.composite
def sampler_cases(draw):
    n = draw(st.integers(1, 300))
    s = draw(st.sampled_from((0.0, 0.8, 1.2, 3.0)))
    k = draw(st.integers(1, n + 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, s, k, seed


@settings(max_examples=150, deadline=None)
@given(sampler_cases())
def test_zipf_ranks_matches_reference(case):
    n, s, k, seed = case
    ref_rng, new_rng = random.Random(seed), random.Random(seed)
    expected = reference_zipf_ranks(ref_rng, n, s, k)
    assert zipf_ranks(new_rng, zipf_cdf(n, s), k) == expected
    # the RNG stream is consumed identically, so later draws line up
    assert new_rng.getstate() == ref_rng.getstate()


class FixedRng:
    """Stub RNG whose every ``random()`` returns one value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_zipf_ranks_draw_past_cdf_end_clamps_to_last_rank():
    # rounding can leave cdf[-1] just under 1.0; a draw above it maps
    # to the last rank, never one past the end
    for n, s in ((1, 0.8), (7, 1.2), (64, 0.0), (300, 3.0)):
        cdf = zipf_cdf(n, s)
        u = math.nextafter(cdf[-1], 2.0)
        assert zipf_ranks(FixedRng(u), cdf, 1) == [n - 1]
        assert reference_zipf_ranks(FixedRng(u), n, s, 1) == [n - 1]
        # the next identical draw walks to the next free rank (wraps)
        if n > 1:
            assert zipf_ranks(FixedRng(u), cdf, 2) == [n - 1, 0]


def test_zipf_ranks_draw_on_cdf_entry_maps_to_that_rank():
    # a draw equal to cdf[j] picks rank j: the first rank whose CDF
    # reaches the draw, as the reference's `cdf[mid] < u` search does
    cdf = zipf_cdf(50, 0.8)
    for j in (0, 1, 17, 48):
        assert zipf_ranks(FixedRng(cdf[j]), cdf, 1) == [j]
        assert reference_zipf_ranks(FixedRng(cdf[j]), 50, 0.8, 1) == [j]


def test_zipf_ranks_k_above_n_is_a_permutation():
    # k > n degenerates to a permutation of every rank
    for n in (1, 2, 5, 9, 40):
        rng, ref = random.Random(n), random.Random(n)
        picked = zipf_ranks(rng, zipf_cdf(n, 1.2), n + 5)
        assert sorted(picked) == list(range(n))
        assert picked == reference_zipf_ranks(ref, n, 1.2, n + 5)


# Fingerprints of the workloads the linear-CDF sampler generated: the
# bisecting sampler must reproduce them bit for bit, independently of
# the simulator and its golden digests.
PINNED_ZIPF_FINGERPRINTS = (
    (dict(num_nodes=1024, scale=0.2, seed=0, lines=8192, zipf_s=0.8),
     "6f48791ed2f1570b3e97cda236a49db9fc8cff94089a4ced892174034552bee4"),
    (dict(num_nodes=256, scale=0.1, seed=0, lines=2048),
     "991b842d880fba10a93a5ab79fe75ab7ae637517b643919ff50ef82ace975ed0"),
)


@pytest.mark.parametrize("kwargs,digest", PINNED_ZIPF_FINGERPRINTS,
                         ids=["mesh_1024", "puno_256"])
def test_zipf_workload_content_pinned(kwargs, digest):
    assert workload_fingerprint(make_zipf_workload(**kwargs)) == digest


def test_rw_mix_has_three_populations():
    wl = make_rw_mix_workload(num_nodes=16, instances=8, seed=1)
    assert wl.num_static_txs == 3
    seen = {tx.static_id for n in range(16)
            for tx in tx_instances(wl, n)}
    assert seen == {0, 1, 2}
    # scanners are read-only and long; writers actually write
    for n in range(16):
        for tx in tx_instances(wl, n):
            writes = [op for op in tx.ops if op.is_write]
            if tx.static_id == 0:
                assert writes
            else:
                assert not writes


# ---------------------------------------------------------------------
# end-to-end: families run clean under audit and actually contend
# ---------------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("cm", ["baseline", "puno"])
def test_family_runs_audit_clean(family, cm):
    wl = make_family_workload(family, num_nodes=16, scale=0.25, seed=0)
    result = run_workload(scaled_config(16, seed=1), wl, cm, audit=True)
    assert result.stats.tx_committed == wl.total_instances()


def test_families_contend_at_scale():
    """The families exist to create contention on big meshes — at 32
    nodes each one must produce real aborts under the baseline."""
    for family in FAMILIES:
        wl = make_family_workload(family, num_nodes=32, scale=0.5, seed=0)
        result = run_workload(scaled_config(32, seed=1), wl, "baseline",
                              audit=False)
        assert result.stats.tx_aborted > 0, family
