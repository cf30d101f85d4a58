"""The golden *scale* section: paper-256/paper-1024 smoke digests.

The 256/1024-node scenarios run entirely on the computed-routing and
pooled-directory paths, so their sanitized smoke digests are the
bit-identity contract for the scale-out machinery the same way the
STAMP tour pins the 16-node protocol.  The full family (~20 s) runs in
CI's scale-smoke job via ``repro golden --scale``; the tests here keep
every pytest invocation cheap by re-running only the cheapest cell.
The file-level checks of the section run with every other section in
``test_golden.py``.
"""

from dataclasses import replace
from pathlib import Path

from repro.scenarios.golden import SCALE_SCENARIOS, load_section, run_pinned
from repro.scenarios.registry import get_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden.json"


# ---------------------------------------------------------------------
# scenario definitions
# ---------------------------------------------------------------------

def test_scale_scenarios_registered_and_valid():
    for name in SCALE_SCENARIOS:
        spec = get_scenario(name)
        assert spec.validate() == []
        assert "scale" in spec.tags


def test_paper_256_shape():
    spec = get_scenario("paper-256")
    assert spec.nodes == 256
    assert set(spec.schemes) == {"baseline", "puno"}
    smoke = spec.smoke()
    # smoke keeps one workload so the CI cell count stays bounded
    assert len(smoke.workloads) == 1
    assert smoke.scale < spec.scale


def test_paper_1024_excludes_puno():
    """The 1024 tier exists to avoid the O(N^2) P-Buffer footprint, so
    no scheme may require a PUNO-enabled config."""
    from repro.scenarios.spec import KNOWN_SCHEMES

    spec = get_scenario("paper-1024")
    assert spec.nodes == 1024
    assert all(not KNOWN_SCHEMES[s] for s in spec.schemes)


def test_scale_meshes_use_computed_routing():
    """Both tiers sit past the route-table threshold — the point of
    the family is to exercise the O(N)-memory path."""
    from repro.network.topology import ROUTE_TABLE_MAX_NODES, build_topology

    for name in SCALE_SCENARIOS:
        spec = get_scenario(name)
        assert spec.nodes > ROUTE_TABLE_MAX_NODES
        cfg = spec.config(spec.schemes[0], seed=0)
        assert not build_topology(cfg.network).has_tables


# ---------------------------------------------------------------------
# the pinned section
# ---------------------------------------------------------------------

def test_cheapest_scale_cell_matches_pinned():
    """Re-run the sub-second cell (paper-256 zipf baseline) and compare
    its digest against the pinned section — the fast regression tooth;
    CI's scale-smoke job covers the remaining cells."""
    pinned = load_section("scale_digests", GOLDEN_PATH)
    spec = replace(get_scenario("paper-256").smoke(), schemes=("baseline",))
    stats = run_pinned(spec).stats("zipf", "baseline")
    assert stats.sanitizer_checks > 0
    assert (stats.snapshot_digest()
            == pinned["paper-256-smoke/zipf/baseline/s0"]), (
        "paper-256 smoke digest drifted — scale-out behaviour changed; "
        "if intentional, bless with 'repro golden --scale --update'")
