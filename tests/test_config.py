"""Tests for SystemConfig and sub-configs (Table II)."""

import dataclasses

import pytest

from repro.network.topology import Mesh
from repro.sim.config import (
    CacheConfig,
    NetworkConfig,
    SystemConfig,
    small_config,
)
from tests.test_topology import reference_avg_latency, reference_latency


def test_table2_defaults():
    cfg = SystemConfig()
    assert cfg.num_nodes == 16
    assert cfg.cache.size_bytes == 32 * 1024
    assert cfg.cache.ways == 4
    assert cfg.l2_latency == 20
    assert cfg.memory_latency == 200
    assert cfg.network.mesh_width == 4 and cfg.network.mesh_height == 4
    assert cfg.network.router_latency == 4
    assert cfg.puno.pbuffer_entries == 16
    assert cfg.puno.txlb_entries == 32


def test_cache_geometry():
    c = CacheConfig()
    assert c.num_lines == 512
    assert c.num_sets == 128
    assert 0 <= c.set_index(12345) < c.num_sets
    assert c.set_index(5) == c.set_index(5 + c.num_sets)


def test_home_node_interleaving():
    cfg = SystemConfig()
    homes = {cfg.home_node(a) for a in range(64)}
    assert homes == set(range(16))
    assert cfg.home_node(17) == 1


def test_mesh_hops_and_latency():
    n = NetworkConfig()
    mesh = Mesh(n)
    assert mesh.hops(0, 0) == 0
    assert mesh.hops(0, 3) == 3  # same row
    assert mesh.hops(0, 15) == 6  # corner to corner on 4x4
    # local delivery still pays one router traversal
    assert mesh.latency(5, 5) == n.router_latency
    assert mesh.latency(0, 1) == 2 * n.router_latency + n.link_latency
    for src, dst in ((0, 15), (7, 8), (12, 3)):
        assert mesh.latency(src, dst) == reference_latency(n, src, dst)


def test_router_traversals_metric():
    # per-flit traversals: one per router visited, hops + 1
    mesh = Mesh(NetworkConfig())
    assert mesh.pair_cost(0, 0)[1] == 1
    assert mesh.pair_cost(0, 1)[1] == 2
    assert mesh.pair_cost(0, 15)[1] == 7


def test_avg_latency_positive_and_symmetric_bounds():
    n = NetworkConfig()
    avg = Mesh(n).avg_latency
    assert avg == reference_avg_latency(n)
    assert reference_latency(n, 0, 1) <= avg <= reference_latency(n, 0, 15)


def test_mismatched_mesh_rejected():
    with pytest.raises(ValueError):
        SystemConfig(num_nodes=8)  # default 4x4 mesh has 16


def test_small_config_shapes():
    for n in (1, 2, 4, 9, 16):
        cfg = small_config(n)
        assert cfg.num_nodes == n
        assert cfg.network.num_nodes == n


def test_describe_mentions_key_parameters():
    text = SystemConfig().describe()
    assert "32 KB" in text and "MESI" in text and "P-Buffer" in text


def test_configs_frozen():
    cfg = SystemConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.num_nodes = 8


# ---------------------------------------------------------------------
# scenario-era helpers: mesh_shape / scaled_config / override_config
# ---------------------------------------------------------------------

def test_mesh_shape_most_square():
    from repro.sim.config import mesh_shape
    assert mesh_shape(16) == (4, 4)
    assert mesh_shape(32) == (8, 4)
    assert mesh_shape(64) == (8, 8)
    assert mesh_shape(12) == (4, 3)
    assert mesh_shape(2) == (2, 1)
    assert mesh_shape(7) == (7, 1)  # prime degenerates to a chain
    for n in range(1, 70):
        w, h = mesh_shape(n)
        assert w * h == n and w >= h >= 1


def test_scaled_config_sizes_pbuffer_per_node():
    from repro.sim.config import scaled_config
    cfg = scaled_config(64, seed=3)
    assert cfg.num_nodes == 64
    assert cfg.network.mesh_width * cfg.network.mesh_height == 64
    assert cfg.puno.pbuffer_entries == 64  # one entry per node
    assert cfg.seed == 3
    # the paper envelope keeps its Table II sizing
    assert scaled_config(16).puno.pbuffer_entries == 16
    # explicit kwargs still win
    assert scaled_config(32, l2_latency=9).l2_latency == 9


def test_override_config_applies_and_rejects():
    from repro.sim.config import override_config
    cfg = SystemConfig()
    out = override_config(cfg, {"puno": {"timeout_scale": 0.5},
                                "system": {"l2_latency": 7}})
    assert out.puno.timeout_scale == 0.5
    assert out.l2_latency == 7
    assert cfg.puno.timeout_scale != 0.5  # original untouched

    with pytest.raises(ValueError, match="unknown override section"):
        override_config(cfg, {"engine": {"x": 1}})
    with pytest.raises(ValueError, match="unknown puno config field"):
        override_config(cfg, {"puno": {"warp": 1}})
    assert override_config(cfg, {}) == cfg


@pytest.mark.parametrize("name", ["topology", "cluster_width",
                                  "cluster_height", "cluster_link_latency"])
def test_override_naming_retired_topology_field_rejected(name):
    """The flat DOR mesh is the only topology: a scenario override that
    still names a field of the retired cluster-of-meshes option fails
    as an unknown field instead of running the flat mesh silently."""
    from repro.sim.config import override_config
    assert len(dataclasses.fields(NetworkConfig)) == 7
    with pytest.raises(ValueError, match="unknown network config field"):
        override_config(SystemConfig(), {"network": {name: 1}})
