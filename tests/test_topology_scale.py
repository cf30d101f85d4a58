"""Scale-out topology contracts: the computed send's costs vs the
per-pair tables, the closed-form average latency and the size limit
that picks between them.

The table-free large mesh is only safe because it is *observationally
identical* to a mesh with tables — same routes, same latencies, same
traversal counts, same average — so the tests here build both over
the same geometries (moving ``ROUTE_TABLE_MAX_NODES`` instead of the
mesh size) and require exact (not approximate) agreement.
Bit-identity of full runs is pinned separately by the golden suites;
these tests localize a future divergence to the topology layer.
"""

import pytest

from repro.network import topology
from repro.network.topology import ROUTE_TABLE_MAX_NODES, Mesh
from repro.sim.config import NetworkConfig
from tests.test_topology import (
    reference_avg_latency,
    reference_latency,
    table_free_mesh,
)


# ---------------------------------------------------------------------
# computed sends == table sends
# ---------------------------------------------------------------------

@pytest.mark.parametrize("width,height", [(4, 4), (8, 8), (8, 2), (3, 5)])
def test_computed_mode_matches_tables(width, height):
    cfg = NetworkConfig(mesh_width=width, mesh_height=height)
    table = Mesh(cfg)
    computed = table_free_mesh(cfg)
    assert table.has_tables and not computed.has_tables
    n = cfg.num_nodes
    for src in range(n):
        for dst in range(n):
            idx = src * n + dst
            # what each send charges: table entries vs mesh.charge
            assert ((table._lat[idx], table._trav[idx])
                    == computed.charge(src, dst, 0))
            assert table.route(src, dst) == computed.route(src, dst)
    assert table.avg_latency == computed.avg_latency


def test_pair_cost_matches_config_formulas():
    cfg = NetworkConfig(mesh_width=16, mesh_height=16)  # 256: computed
    mesh = Mesh(cfg)
    assert not mesh.has_tables
    for src, dst in [(0, 255), (255, 0), (17, 17), (3, 240), (128, 129)]:
        lat, trav = mesh.pair_cost(src, dst)
        assert lat == reference_latency(cfg, src, dst)
        assert trav == len(mesh.route(src, dst))


@pytest.mark.parametrize("width,height", [(2, 2), (4, 4), (8, 2),
                                          (3, 5), (16, 16), (32, 32)])
def test_closed_form_avg_latency_is_bit_identical(width, height):
    cfg = NetworkConfig(mesh_width=width, mesh_height=height)
    # == (not approx): PUNO's backoff consumes this float, so any ULP
    # drift would shift notification timing and break run digests.
    assert Mesh(cfg).avg_latency == reference_avg_latency(cfg)


def test_single_node_avg_latency_is_zero():
    cfg = NetworkConfig(mesh_width=1, mesh_height=1)
    assert Mesh(cfg).avg_latency == 0.0


# ---------------------------------------------------------------------
# the size limit
# ---------------------------------------------------------------------

def test_auto_threshold_selects_mode():
    small = Mesh(NetworkConfig(mesh_width=8, mesh_height=8))
    large = Mesh(NetworkConfig(mesh_width=16, mesh_height=16))
    assert small.num_nodes <= ROUTE_TABLE_MAX_NODES and small.has_tables
    assert large.num_nodes > ROUTE_TABLE_MAX_NODES and not large.has_tables


def test_forced_tables_work_above_auto_threshold(monkeypatch):
    cfg = NetworkConfig(mesh_width=16, mesh_height=16)  # 256 > 128
    auto = Mesh(cfg)
    monkeypatch.setattr(topology, "ROUTE_TABLE_MAX_NODES", 256)
    forced = Mesh(cfg)
    assert forced.has_tables and not auto.has_tables
    n = cfg.num_nodes
    for src, dst in [(0, 255), (100, 200), (42, 42)]:
        idx = src * n + dst
        assert ((forced._lat[idx], forced._trav[idx])
                == auto.charge(src, dst, 0))
