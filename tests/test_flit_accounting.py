"""Per-router flit accounting: the table send, the computed send and a
route-walk oracle must agree on every message stream.

A mesh with tables counts flits per (src, dst) pair and expands them
over each pair's route.  A mesh without them hands each message to
``mesh.charge``, which counts flits per DOR route leg.  Both run on
the same small geometries: the computed side is built with
``ROUTE_TABLE_MAX_NODES`` patched to 0.  The oracle walks
``mesh.route`` once per message.  The 32x32 mesh runs the computed
send against the oracle and the reference latency only: its tables
would hold a million entries each.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.message import DATA_TYPES, Message, MessageType
from repro.network.network import Network
from repro.network.topology import Mesh
from repro.sim.config import NetworkConfig
from repro.sim.engine import Simulator
from repro.sim.stats import Stats
from tests.test_topology import reference_latency, table_free_mesh

#: (width, height) shapes: a single row, a single column, non-square
#: meshes in both orientations and a square one.
SMALL_SHAPES = ((1, 1), (1, 7), (9, 1), (2, 5), (6, 3), (4, 4), (5, 8))


def _network(mesh):
    """A network over ``mesh`` whose endpoints record each delivery as
    ``(cycle, message uid)``."""
    sim = Simulator()
    net = Network(sim, mesh, Stats(mesh.num_nodes))
    deliveries = []

    def sink(msg):
        deliveries.append((sim.now, msg.uid))

    for node in range(mesh.num_nodes):
        net.register(node, sink)
    return sim, net, deliveries


def _drive(mesh, stream):
    """Send ``stream`` (``(src, dst, mtype, extra_delay)`` tuples) and
    drain the engine; returns the network and its deliveries."""
    sim, net, deliveries = _network(mesh)
    for uid, (src, dst, mtype, extra) in enumerate(stream):
        net.send(Message(mtype, 0x40, src, dst, uid=uid), extra_delay=extra)
    sim.run()
    return net, sorted(deliveries)


def _route_walk(mesh, stream):
    """The oracle: every router on every message's route, walked once
    per message."""
    config = mesh.config
    out = [0] * mesh.num_nodes
    for src, dst, mtype, _ in stream:
        flits = (config.data_flits if mtype in DATA_TYPES
                 else config.control_flits)
        for router in mesh.route(src, dst):
            out[router] += flits
    return out


@st.composite
def streams(draw, num_nodes, max_size=60):
    node = st.integers(0, num_nodes - 1)
    return draw(st.lists(
        st.tuples(node, node, st.sampled_from(list(MessageType)),
                  st.integers(0, 5)),
        max_size=max_size))


def _check_modes_agree(config, stream):
    table = Mesh(config)
    computed = table_free_mesh(config)
    assert table.has_tables and not computed.has_tables
    net_t, deliv_t = _drive(table, stream)
    net_c, deliv_c = _drive(computed, stream)
    oracle = _route_walk(computed, stream)
    assert net_t.router_flits == net_c.router_flits == oracle
    for net in (net_t, net_c):
        assert sum(net.router_flits) == net.stats.flit_router_traversals
    assert (net_t.stats.flit_router_traversals
            == net_c.stats.flit_router_traversals)
    assert deliv_t == deliv_c
    assert len(deliv_c) == len(stream)


@st.composite
def mesh_cases(draw):
    w, h = draw(st.sampled_from(SMALL_SHAPES))
    return NetworkConfig(mesh_width=w, mesh_height=h), \
        draw(streams(w * h))


@settings(max_examples=60, deadline=None)
@given(mesh_cases())
def test_mesh_modes_agree_with_route_walk(case):
    config, stream = case
    _check_modes_agree(config, stream)


@settings(max_examples=15, deadline=None)
@given(streams(1024, max_size=200))
def test_32x32_computed_mode_matches_route_walk(stream):
    config = NetworkConfig(mesh_width=32, mesh_height=32)
    mesh = Mesh(config)
    assert not mesh.has_tables
    net, deliveries = _drive(mesh, stream)
    assert net.router_flits == _route_walk(mesh, stream)
    assert sum(net.router_flits) == net.stats.flit_router_traversals
    expected = sorted((reference_latency(config, src, dst) + extra, uid)
                      for uid, (src, dst, _, extra) in enumerate(stream))
    assert deliveries == expected


def _container_sizes(obj):
    return {name: len(value) for name, value in vars(obj).items()
            if isinstance(value, (list, dict, set, tuple))}


def test_computed_mode_footprint_does_not_grow_with_pairs():
    """At 1024 nodes, sends between more than 10k distinct pairs leave
    every container the network and its mesh hold at its initial
    size: the flit counts are per route leg, not per pair."""
    mesh = Mesh(NetworkConfig(mesh_width=32, mesh_height=32))
    assert not mesh.has_tables
    sim, net, deliveries = _network(mesh)
    before = (_container_sizes(net), _container_sizes(mesh))
    pairs = set()
    n = mesh.num_nodes
    for i in range(12_000):
        src = (i * 7919) % n
        dst = (i * 104_729 + i // n) % n
        pairs.add((src, dst))
        net.send(Message(MessageType.GETS, 0x40, src, dst, uid=i))
    sim.run()
    assert len(pairs) > 10_000 and len(deliveries) == 12_000
    assert (_container_sizes(net), _container_sizes(mesh)) == before
    assert sum(net.router_flits) == net.stats.flit_router_traversals
