"""Tests for the 2D mesh and DOR routing.

The reference functions below restate the mesh timing model straight
from its definition, pair by pair, independently of ``Mesh``'s closed
forms and tables; other test modules use them as the oracle.
"""

import pytest

from repro.network import topology
from repro.network.topology import Mesh
from repro.sim.config import NetworkConfig


def reference_hops(config, src, dst):
    """Dimension-order-routed hop count between two nodes."""
    w = config.mesh_width
    return abs(src % w - dst % w) + abs(src // w - dst // w)


def reference_latency(config, src, dst):
    """End-to-end message latency in cycles.

    A message traverses ``hops`` links and ``hops + 1`` routers
    (including injection/ejection pipelines); a local delivery still
    pays one router traversal.
    """
    h = reference_hops(config, src, dst)
    per_hop = config.link_latency + config.load_factor
    return (h + 1) * config.router_latency + h * per_hop


def reference_avg_latency(config):
    """Average latency between distinct node pairs, by brute force."""
    n = config.num_nodes
    total = 0
    pairs = 0
    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            total += reference_latency(config, s, d)
            pairs += 1
    return total / pairs if pairs else 0.0


def table_free_mesh(config):
    """A mesh of any size built without per-pair tables, as meshes past
    ``ROUTE_TABLE_MAX_NODES`` are."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(topology, "ROUTE_TABLE_MAX_NODES", 0)
        return Mesh(config)


@pytest.fixture
def mesh():
    return Mesh(NetworkConfig())


def test_coords_row_major(mesh):
    assert mesh.coords(0) == (0, 0)
    assert mesh.coords(3) == (3, 0)
    assert mesh.coords(4) == (0, 1)
    assert mesh.coords(15) == (3, 3)
    with pytest.raises(ValueError):
        mesh.coords(16)


def test_route_is_x_then_y(mesh):
    # 0=(0,0) -> 15=(3,3): X first to (3,0)=3, then Y down to 15
    assert mesh.route(0, 15) == [0, 1, 2, 3, 7, 11, 15]


def test_route_endpoints_and_length(mesh):
    for src in range(16):
        for dst in range(16):
            path = mesh.route(src, dst)
            assert path[0] == src and path[-1] == dst
            assert len(path) == mesh.hops(src, dst) + 1


def test_route_self(mesh):
    assert mesh.route(6, 6) == [6]


def test_route_steps_are_neighbors(mesh):
    path = mesh.route(12, 3)
    for a, b in zip(path, path[1:]):
        ax, ay = mesh.coords(a)
        bx, by = mesh.coords(b)
        assert abs(ax - bx) + abs(ay - by) == 1


def test_hops_symmetric(mesh):
    for s in range(16):
        for d in range(16):
            assert mesh.hops(s, d) == mesh.hops(d, s)


def test_manhattan_triangle_inequality(mesh):
    """d(a,c) <= d(a,b) + d(b,c): the protocol relies on this so an
    owner's WB_DATA always reaches the home before the requester's
    UNBLOCK."""
    for a in range(16):
        for b in range(16):
            for c in range(16):
                assert mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c)


def test_avg_latency_cached(mesh):
    assert mesh.avg_latency == reference_avg_latency(mesh.config)


def test_rectangular_mesh():
    m = Mesh(NetworkConfig(mesh_width=8, mesh_height=2))
    assert m.num_nodes == 16
    assert m.coords(9) == (1, 1)
    assert m.hops(0, 15) == 7 + 1
