"""Bitmask sharer-set equivalence: property tests against a reference
``set[int]`` model, and a sanitized 64-node smoke pinned to the
pre-bitmask snapshot digests.

The directory's ``DirEntry.sharers`` switched from ``Set[int]`` to an
integer bitmask; these tests are the contract that the switch is
unobservable.  The property tests drive both representations through
random add/remove sequences (up to 256 node ids — wider than any
supported mesh) and require membership, cardinality, and *iteration
order* to agree at every step, because forward fan-out order feeds the
event schedule and therefore every digest.  The smoke test then pins
the full-stack consequence: a sanitized 64-node scenario run must
reproduce the digests recorded on the set-based code.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.bitset import bit_list, bit_tuple, iter_bits, mask_of

# ---------------------------------------------------------------------
# reference-model property tests
# ---------------------------------------------------------------------

_ops = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "toggle", "clear"]),
              st.integers(0, 255)),
    max_size=200,
)


@given(_ops)
def test_bitmask_tracks_set_model(ops):
    """add/remove/toggle/clear against set semantics, every step."""
    mask = 0
    model = set()
    for op, n in ops:
        if op == "add":
            mask |= 1 << n
            model.add(n)
        elif op == "remove":
            mask &= ~(1 << n)
            model.discard(n)
        elif op == "toggle":
            mask ^= 1 << n
            model.symmetric_difference_update({n})
        else:  # clear — the directory's sharer reset is an int store
            mask = 0
            model.clear()
        # membership, popcount, truthiness
        assert bool((mask >> n) & 1) == (n in model)
        assert mask.bit_count() == len(model)
        assert bool(mask) == bool(model)
        # iteration: ascending ids == sorted() of the old set
        assert bit_list(mask) == sorted(model)
    assert list(iter_bits(mask)) == sorted(model)
    assert bit_tuple(mask) == tuple(sorted(model))


@given(st.sets(st.integers(0, 255), max_size=64))
def test_mask_of_roundtrip(nodes):
    mask = mask_of(nodes)
    assert mask.bit_count() == len(nodes)
    assert set(bit_list(mask)) == nodes
    for n in nodes:
        assert (mask >> n) & 1


@given(st.sets(st.integers(0, 255), max_size=64),
       st.sets(st.integers(0, 255), max_size=64))
def test_bitwise_ops_match_set_algebra(a, b):
    ma, mb = mask_of(a), mask_of(b)
    assert bit_list(ma | mb) == sorted(a | b)
    assert bit_list(ma & mb) == sorted(a & b)
    assert bit_list(ma & ~mb) == sorted(a - b)
    assert bit_list(ma ^ mb) == sorted(a ^ b)


def test_iter_bits_is_ascending_and_lazy():
    mask = mask_of({63, 0, 17, 255})
    it = iter_bits(mask)
    assert next(it) == 0
    assert list(it) == [17, 63, 255]


# ---------------------------------------------------------------------
# full-stack smoke: sanitized 64-node digests pinned across the
# set -> bitmask representation change
# ---------------------------------------------------------------------

# Recorded on the set-based directory (pre-bitmask), sanitized smoke
# profile of the zipf-64 scenario.  Bit-identity of the refactor means
# these never move; regenerate ONLY for a deliberate behavior change
# (and say so in the commit).
ZIPF64_SMOKE_DIGESTS = {
    "baseline":
        "e6440ddb68e6804c9a0bd536dca5dd5f5ee177fdecbea165cddec15f9d0111ae",
    "puno":
        "94e776d8e3bccdb91a3e5273f09db03171605928cac7259c19387e261bd16ef8",
}


def test_zipf64_sanitized_smoke_digests_are_pre_bitmask():
    from repro.scenarios.registry import get_scenario
    from repro.system import System

    spec = get_scenario("zipf-64").smoke()
    seed = spec.seeds[0]
    for scheme, expected in ZIPF64_SMOKE_DIGESTS.items():
        assert scheme in spec.schemes
        cfg = spec.config(seed)
        wl = spec.workloads[0].to_spec(spec.nodes, spec.scale, seed).build()
        system = System(cfg, wl, scheme, sanitize=True)
        system.run(max_cycles=spec.max_cycles)
        assert system.stats.sanitizer_checks > 0
        assert system.stats.snapshot_digest() == expected, (
            f"zipf-64/{scheme} sanitized digest drifted from the "
            f"set-based directory recording")
