"""Hot-path regression tests: flyweight factories, dispatch tables,
allocation-free op timers, precomputed mesh tables, sanitizer-selected
send path, and the bit-identical-behaviour guarantee the whole
optimisation PR rests on."""

import json

import pytest

from repro.network.message import (
    Message,
    MessageType,
    TxTag,
    make_ack,
    make_data,
    make_fwd,
    make_nack,
    make_put_ack,
    make_request,
    make_unblock,
)
from repro.network.network import Network
from repro.network.topology import Mesh
from repro.sim.config import NetworkConfig, SystemConfig
from repro.sim.engine import Event, Simulator
from repro.sim.stats import Stats
from repro.system import System
from repro.workloads.stamp import make_stamp_workload
from tests.test_topology import reference_latency


def _fields(msg):
    """Every slot except the per-instance uid."""
    return {name: getattr(msg, name) for name in Message.__slots__
            if name != "uid"}


# ---------------------------------------------------------------------
# flyweight factories
# ---------------------------------------------------------------------

def test_make_ack_matches_keyword_construction():
    fast = make_ack(0x40, 3, 7, 11, acks_expected=2, aborted=True)
    slow = Message(MessageType.ACK, 0x40, 3, 7, requester=7, req_id=11,
                   acks_expected=2, aborted=True)
    assert _fields(fast) == _fields(slow)


def test_make_nack_matches_keyword_construction():
    fast = make_nack(0x80, 5, 2, 9, terminal=True, acks_expected=3,
                     u_bit=True, t_est=120, mp_bit=True)
    slow = Message(MessageType.NACK, 0x80, 5, 2, requester=2, req_id=9,
                   terminal=True, acks_expected=3, u_bit=True, t_est=120,
                   mp_bit=True)
    assert _fields(fast) == _fields(slow)


def test_make_put_ack_matches_keyword_construction():
    fast = make_put_ack(0xC0, 1, 6, 4)
    slow = Message(MessageType.PUT_ACK, 0xC0, 1, 6, requester=6, req_id=4)
    assert _fields(fast) == _fields(slow)


def test_make_unblock_matches_keyword_construction():
    fast = make_unblock(0x100, 4, 0, 13, success=False, survivors=(2, 5),
                        mp_bit=True, mp_node=5)
    slow = Message(MessageType.UNBLOCK, 0x100, 4, 0, requester=4, req_id=13,
                   success=False, survivors=(2, 5), mp_bit=True, mp_node=5)
    assert _fields(fast) == _fields(slow)


def test_make_request_matches_keyword_construction():
    tag = TxTag(3, 120, 7, 40)
    fast = make_request(MessageType.GETX, 0x40, 3, 4, 11, tag, True)
    slow = Message(MessageType.GETX, 0x40, 3, 4, requester=3, req_id=11,
                   tx=tag, committing=True)
    assert _fields(fast) == _fields(slow)


def test_make_fwd_matches_keyword_construction():
    tag = TxTag(2, 99, 1, 0)
    req = make_request(MessageType.GETX, 0x80, 2, 5, 17, tag, True)
    # owner path, PUNO unicast, multicast: every FWD shape the
    # directory sends
    fast = make_fwd(MessageType.FWD_GETX, req, 5, 6, 1, True, True)
    slow = Message(MessageType.FWD_GETX, 0x80, 5, 6, requester=2,
                   req_id=17, tx=tag, acks_expected=1, terminal=True,
                   committing=True)
    assert _fields(fast) == _fields(slow)
    fast = make_fwd(MessageType.FWD_GETX, req, 5, 6, 1, True, False, True)
    slow = Message(MessageType.FWD_GETX, 0x80, 5, 6, requester=2,
                   req_id=17, tx=tag, acks_expected=1, terminal=True,
                   u_bit=True)
    assert _fields(fast) == _fields(slow)
    fast = make_fwd(MessageType.FWD_GETS, req, 5, 9, 3)
    slow = Message(MessageType.FWD_GETS, 0x80, 5, 9, requester=2,
                   req_id=17, tx=tag, acks_expected=3)
    assert _fields(fast) == _fields(slow)


def test_make_data_matches_keyword_construction():
    for mtype in (MessageType.DATA, MessageType.DATA_EXCL,
                  MessageType.GRANT):
        fast = make_data(mtype, 0xC0, 1, 6, 4, 77, 2, True, True)
        slow = Message(mtype, 0xC0, 1, 6, requester=6, req_id=4, value=77,
                       acks_expected=2, terminal=True, aborted=True)
        assert _fields(fast) == _fields(slow)


def test_factory_defaults_match_keyword_defaults():
    req = Message(MessageType.GETS, 0x40, 7, 3, requester=7, req_id=11)
    pairs = [
        (make_request(MessageType.GETS, 0x40, 7, 3, 11), req),
        (make_fwd(MessageType.FWD_GETS, req, 3, 5, 0),
         Message(MessageType.FWD_GETS, 0x40, 3, 5, requester=7, req_id=11)),
        (make_data(MessageType.DATA, 0x40, 3, 7, 11),
         Message(MessageType.DATA, 0x40, 3, 7, requester=7, req_id=11)),
        (make_ack(0x40, 3, 7, 11),
         Message(MessageType.ACK, 0x40, 3, 7, requester=7, req_id=11)),
        (make_nack(0x40, 3, 7, 11),
         Message(MessageType.NACK, 0x40, 3, 7, requester=7, req_id=11)),
        (make_unblock(0x40, 3, 7, 11),
         Message(MessageType.UNBLOCK, 0x40, 3, 7, requester=3, req_id=11)),
    ]
    for fast, slow in pairs:
        assert _fields(fast) == _fields(slow)


def test_message_has_no_instance_dict():
    msg = make_put_ack(0x40, 0, 1, 2)
    with pytest.raises(AttributeError):
        msg.bogus = 1


def test_message_uids_stay_unique():
    uids = {make_put_ack(0x40, 0, 1, i).uid for i in range(100)}
    uids |= {Message(MessageType.GETS, 0x40, 0, 1).uid for _ in range(100)}
    assert len(uids) == 200


def test_message_type_is_int_coded():
    # Members are IntEnum singletons: usable directly as dense array
    # indices, with the int hash so dict fallbacks stay exact.
    assert isinstance(MessageType.ACK, int)
    assert hash(MessageType.ACK) == hash(int(MessageType.ACK))
    assert {MessageType.ACK: 1}[MessageType.ACK] == 1
    # Codes are stable and dense — the contract every [code]-indexed
    # accumulator and dispatch table relies on.
    assert sorted(int(t) for t in MessageType) == list(range(len(MessageType)))
    # The MSHR response window must stay contiguous.
    assert (
        MessageType.DATA_EXCL - MessageType.DATA == 1
        and MessageType.GRANT - MessageType.DATA_EXCL == 1
    )


# ---------------------------------------------------------------------
# dispatch tables
# ---------------------------------------------------------------------

def _tiny_system(scheme="baseline"):
    wl = make_stamp_workload("intruder", num_nodes=16, scale=0.05, seed=0)
    cfg = SystemConfig(seed=0)
    if scheme == "puno":
        cfg = cfg.with_puno()
    return System(cfg, wl, scheme)


def test_dispatch_tables_cover_every_message_type():
    system = _tiny_system()
    node = system.nodes[0]
    directory = system.directories[0]
    node_names, dir_names = node.HANDLERS, directory.HANDLERS
    assert not set(node_names) & set(dir_names)  # disjoint
    assert set(node_names) | set(dir_names) == set(MessageType)
    for owner, table in ((node, node_names), (directory, dir_names)):
        for name in table.values():
            assert callable(getattr(owner, name))
    # the class tables are the only dispatch state a controller keeps
    assert not hasattr(node, "handlers")
    assert not hasattr(directory, "handlers")


def test_op_timers_allocate_no_event_per_op(monkeypatch):
    """Node op timers re-arm one handle per node instead of allocating
    an ``Event`` per ``schedule``.  Counts constructions over a
    paper-scale cell, so a new ``schedule`` on the op path fails here
    whatever the host's speed."""
    built = [0]
    init = Event.__init__

    def counting_init(self, sim=None):
        built[0] += 1
        init(self, sim)

    wl = make_stamp_workload("intruder", num_nodes=16, scale=1.0, seed=0)
    system = System(SystemConfig(seed=1), wl, "baseline")
    monkeypatch.setattr(Event, "__init__", counting_init)
    system.run()
    events = system.sim.events_processed
    assert events > 50_000
    assert built[0] < events // 100, (built[0], events)


def test_unknown_handler_still_raises():
    """The .get()-then-raise pattern keeps the old ValueError contract
    for types a controller does not own."""
    system = _tiny_system()
    # GETS belongs to the directory, not the node
    msg = Message(MessageType.GETS, 0x40, 1, 0, requester=1, req_id=1)
    with pytest.raises(ValueError):
        system.nodes[0].receive(msg)
    # UNBLOCK belongs to the directory; ACK belongs to the node
    ack = make_ack(0x40, 1, 0, 1)
    with pytest.raises(ValueError):
        system.directories[0].receive(ack)


# ---------------------------------------------------------------------
# precomputed mesh tables
# ---------------------------------------------------------------------

def test_mesh_tables_match_analytic_formulas():
    cfg = NetworkConfig()
    mesh = Mesh(cfg)
    assert mesh.has_tables
    n = cfg.num_nodes
    for src in range(n):
        for dst in range(n):
            sx, sy = mesh.coords(src)
            dx, dy = mesh.coords(dst)
            hops = abs(sx - dx) + abs(sy - dy)
            idx = src * n + dst
            assert mesh.hops(src, dst) == hops
            assert mesh._lat[idx] == reference_latency(cfg, src, dst)
            assert mesh._trav[idx] == hops + 1
            assert mesh.pair_cost(src, dst) == (mesh._lat[idx],
                                                mesh._trav[idx])
            route = mesh.route(src, dst)
            assert isinstance(route, list)
            assert route[0] == src and route[-1] == dst
            assert len(route) == hops + 1


def test_mesh_route_returns_fresh_list():
    mesh = Mesh(NetworkConfig())
    r1 = mesh.route(0, 5)
    r1.append(999)  # mutating the caller's copy must not poison the table
    assert mesh.route(0, 5)[-1] == 5


# ---------------------------------------------------------------------
# sanitizer-selected send implementation
# ---------------------------------------------------------------------

class _RecordingSan:
    def __init__(self):
        self.checked = []

    def check_message(self, msg):
        self.checked.append(msg)


def _tiny_net():
    sim = Simulator()
    cfg = NetworkConfig()
    net = Network(sim, Mesh(cfg), Stats(cfg.num_nodes))
    for node in range(cfg.num_nodes):
        net.register(node, lambda m: None)
    return sim, net


def test_send_impl_switches_with_sanitizer():
    _, net = _tiny_net()
    assert net.san is None
    assert net.send.__func__ is Network._send_fast
    san = _RecordingSan()
    net.san = san
    assert net.send.__func__ is Network._send_full
    net.send(Message(MessageType.GETS, 0x40, 0, 1, requester=0, req_id=1))
    assert len(san.checked) == 1
    net.san = None
    assert net.send.__func__ is Network._send_fast
    net.send(Message(MessageType.GETS, 0x80, 0, 1, requester=0, req_id=2))
    assert len(san.checked) == 1  # detached: no further checks


def test_send_counts_str_keys_and_flits():
    sim, net = _tiny_net()
    cfg = net.mesh.config
    net.send(Message(MessageType.DATA, 0x40, 0, 5))
    net.send(Message(MessageType.NACK, 0x40, 5, 0))
    stats = net.stats
    assert stats.messages_by_type == {"DATA": 1, "NACK": 1}
    assert stats.flits_injected == cfg.data_flits + cfg.control_flits
    expected = ((net.mesh.hops(0, 5) + 1) * cfg.data_flits
                + (net.mesh.hops(5, 0) + 1) * cfg.control_flits)
    assert stats.flit_router_traversals == expected
    sim.run()


def test_unknown_destination_still_keyerror():
    _, net = _tiny_net()
    with pytest.raises(KeyError):
        net.send(Message(MessageType.GETS, 0x40, 0, 99))


def test_router_flits_materializes_lazily():
    sim, net = _tiny_net()
    cfg = net.mesh.config
    net.send(Message(MessageType.GETS, 0x40, 0, 3))
    sim.run()
    # the send bumped one per-pair count in the mesh, nothing per router
    assert net.mesh._pair_flits[0 * cfg.num_nodes + 3] == cfg.control_flits
    assert sum(net.mesh._pair_flits) == cfg.control_flits
    rf = net.router_flits
    assert rf == net.mesh.router_flits()
    # every router on the 0 -> 3 DOR route saw the control flits
    for router in net.mesh.route(0, 3):
        assert rf[router] == cfg.control_flits
    assert sum(rf) == cfg.control_flits * (net.mesh.hops(0, 3) + 1)


# ---------------------------------------------------------------------
# the guarantee everything above serves: bit-identical behaviour
# ---------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["baseline", "puno"])
def test_run_twice_snapshot_identical(scheme):
    snaps = []
    for _ in range(2):
        wl = make_stamp_workload("intruder", num_nodes=16, scale=0.1, seed=0)
        cfg = SystemConfig(seed=0)
        if scheme == "puno":
            cfg = cfg.with_puno()
        result = System(cfg, wl, scheme).run()
        snaps.append(json.dumps(result.stats.snapshot(), sort_keys=True,
                                default=str))
    assert snaps[0] == snaps[1]


def test_snapshot_keys_are_json_serializable():
    wl = make_stamp_workload("intruder", num_nodes=16, scale=0.05, seed=0)
    result = System(SystemConfig(seed=0), wl, "baseline").run()
    snap = result.stats.snapshot()
    json.dumps(snap)  # raises if any Counter kept enum keys
    assert all(isinstance(k, str) for k in snap["messages_by_type"])


# ---------------------------------------------------------------------
# bench harness: regression gate + reference-block plumbing
# ---------------------------------------------------------------------

def _bench_module():
    import importlib.util
    import pathlib
    path = (pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks" / "bench_micro.py")
    spec = importlib.util.spec_from_file_location("bench_micro", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _report(aggregate, reference=None):
    out = {"end_to_end": {"aggregate_events_per_sec": aggregate}}
    if reference is not None:
        out["reference_pre_pr"] = {
            "end_to_end": {"aggregate_events_per_sec": reference}}
    return out


def test_check_against_passes_within_tolerance(tmp_path, capsys):
    bench = _bench_module()
    baseline = tmp_path / "base.json"
    baseline.write_text(json.dumps(_report(100_000, reference=90_000)))
    assert bench.check_against(_report(60_000), baseline) == 0
    capsys.readouterr()


def test_check_against_fails_on_gross_regression(tmp_path, capsys):
    bench = _bench_module()
    baseline = tmp_path / "base.json"
    baseline.write_text(json.dumps(_report(100_000)))
    assert bench.check_against(_report(40_000), baseline) == 1
    capsys.readouterr()


def test_check_against_enforces_pre_pr_floor(tmp_path, capsys):
    # Within 2x of the fresh baseline but below half the recorded
    # pre-optimization floor: the gate must still fail — the floor is
    # the whole point of keeping the reference block in the artifact.
    bench = _bench_module()
    baseline = tmp_path / "base.json"
    baseline.write_text(json.dumps(_report(100_000, reference=500_000)))
    assert bench.check_against(_report(60_000), baseline) == 1
    capsys.readouterr()


def _tick(rate_16, rate_256):
    return {"phases": {"puno_tick": {"ticks_per_sec_16": rate_16,
                                     "ticks_per_sec_256": rate_256}}}


def test_puno_tick_check_floors_rate_against_baseline(capsys):
    bench = _bench_module()
    base = _tick(1_000_000, 1_000_000)
    assert bench.check_puno_tick(_tick(600_000, 600_000), base) == 0
    assert bench.check_puno_tick(_tick(400_000, 400_000), base) == 1
    capsys.readouterr()


def test_puno_tick_check_fails_when_tick_cost_grows_with_size(capsys):
    """A per-entry sweep makes the 256-entry tick several times slower
    than the 16-entry one; the O(1) gate needs no baseline to see it."""
    bench = _bench_module()
    assert bench.check_puno_tick(_tick(490_000, 150_000), {}) == 1
    assert bench.check_puno_tick(_tick(1_450_000, 1_390_000), {}) == 0
    capsys.readouterr()


def _drain(rate):
    return {"phases": {"chunked_drain": {"events_per_sec": rate}}}


def test_chunked_drain_check_floors_rate_against_baseline(capsys):
    bench = _bench_module()
    base = _drain(800_000)
    assert bench.check_chunked_drain(_drain(500_000), base) == 0
    assert bench.check_chunked_drain(_drain(300_000), base) == 1
    # older baselines without the phase skip the floor
    assert bench.check_chunked_drain(_drain(300_000), {}) == 0
    assert bench.check_chunked_drain({"phases": {}}, base) == 0
    capsys.readouterr()


def _build(rate_256, rate_8192):
    return {"phases": {"workload_build": {
        "ranks_per_sec_256": rate_256, "ranks_per_sec_8192": rate_8192}}}


def test_workload_build_check_fails_when_draw_cost_grows_with_lines(
        capsys):
    """A Zipf CDF rebuilt per transaction makes each draw O(lines): the
    8192-line rate falls tens of times below the 256-line one, which a
    ratio within one run catches on any runner."""
    bench = _bench_module()
    assert bench.check_workload_build(_build(83_000, 2_800)) == 1
    assert bench.check_workload_build(_build(224_000, 196_000)) == 0
    assert bench.check_workload_build({"phases": {}}) == 0
    capsys.readouterr()


def _grid(builds, distinct=8):
    return {"phases": {"grid_setup": {
        "cells": 32, "distinct_specs": distinct, "builds": builds,
        "seconds": 0.1}}}


def test_grid_setup_check_gates_builds_per_distinct_spec(capsys):
    """Rebuilding a workload for each of its four schemes is a count
    mismatch, whatever the runner's speed."""
    bench = _bench_module()
    assert bench.check_grid_setup(_grid(8)) == 0
    assert bench.check_grid_setup(_grid(32)) == 1
    assert bench.check_grid_setup({"phases": {}}) == 0
    capsys.readouterr()


def test_grid_setup_phase_builds_each_spec_once():
    bench = _bench_module()
    phase = bench.bench_grid_setup(scale=0.02, repeats=1)
    assert phase["cells"] == 32
    assert phase["builds"] == phase["distinct_specs"] == 8
    assert bench.check_grid_setup({"phases": {"grid_setup": phase}}) == 0


def _mesh(rss_kb):
    return {"mesh_scaling": {
        str(n): {"events_per_sec": 200_000.0, "peak_rss_kb": kb}
        for n, kb in rss_kb.items()}}


def test_mesh_check_gates_net_rss_per_size(capsys):
    bench = _bench_module()
    base = _mesh({16: 200, 1024: 22_000})
    assert bench.check_mesh_scaling(_mesh({16: 1_500, 1024: 30_000}),
                                    base) == 0
    # 16 nodes: 200 kB x 1.5 + 2 MB slack = 2348 kB allowed
    assert bench.check_mesh_scaling(_mesh({16: 3_000, 1024: 22_000}),
                                    base) == 1
    # 1024 nodes: an O(N^2) table would add hundreds of MB
    assert bench.check_mesh_scaling(_mesh({16: 200, 1024: 300_000}),
                                    base) == 1
    capsys.readouterr()


def test_load_reference_prefers_existing_block(tmp_path):
    bench = _bench_module()
    out = tmp_path / "out.json"
    out.write_text(json.dumps(_report(200_000, reference=100_000)))
    ref = bench._load_reference(out, None)
    assert ref["end_to_end"]["aggregate_events_per_sec"] == 100_000


def test_load_reference_compacts_legacy_report(tmp_path):
    bench = _bench_module()
    check = tmp_path / "base.json"
    check.write_text(json.dumps(_report(150_000)))
    ref = bench._load_reference(tmp_path / "missing.json", check)
    assert ref["end_to_end"]["aggregate_events_per_sec"] == 150_000


def test_load_reference_empty_when_no_prior(tmp_path):
    bench = _bench_module()
    assert bench._load_reference(tmp_path / "a.json",
                                 tmp_path / "b.json") == {}


def test_committed_bench_record_has_reference_block():
    import pathlib
    path = (pathlib.Path(__file__).resolve().parents[1]
            / "BENCH_hotpath.json")
    record = json.loads(path.read_text())
    ref = record["reference_pre_pr"]
    # the trajectory must stay monotone: the committed aggregate is
    # never below the pre-optimization reference it ships with
    assert (record["end_to_end"]["aggregate_events_per_sec"]
            >= ref["end_to_end"]["aggregate_events_per_sec"])
