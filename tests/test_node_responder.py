"""NodeController responder-side unit tests.

Drives one node through a RecordingNetwork and hand-built forwarded
requests, asserting the exact responses — the conflict-detection
choreography of Section II-B and the U-bit rules of Section III-C.
"""

import pytest

from repro.coherence.states import L1State
from repro.htm.node import NodeController
from repro.network.message import Message, MessageType, TxTag
from repro.sim.config import override_config, small_config
from repro.sim.engine import Simulator
from repro.sim.stats import Stats
from repro.htm.contention.fixed import FixedBackoff
from repro.testing import RecordingNetwork
from repro.workloads.base import TxInstance, TxOp
from repro.workloads.generator import read_ops, write_ops


@pytest.fixture
def node_setup():
    sim = Simulator()
    cfg = override_config(small_config(4),
                          {"puno": {"min_nacker_length": 0}})
    stats = Stats(4)
    net = RecordingNetwork(sim, stats)
    cm = FixedBackoff(cfg, stats)
    program = [TxInstance(0, read_ops([0], 1, 0)
                          + [TxOp(True, 4, 1, 1)]
                          + [TxOp(False, 100, 5000, 2)])]
    node = NodeController(sim, 1, cfg, net, stats, cm, program)
    return sim, node, net, stats


def _start_tx(sim, node, net):
    """Run the node until its transaction holds line 0 (read) and
    line 4 (written, M state)."""
    node.start()
    sim.run(until=sim.now + 10)
    # answer the GETS for line 0
    gets = net.pop(MessageType.GETS)
    node.receive(Message(MessageType.DATA, 0, 0, 1, requester=1,
                         req_id=gets.req_id, value=7, acks_expected=0))
    sim.run(until=sim.now + 10)
    getx = net.pop(MessageType.GETX)
    assert getx.addr == 4
    node.receive(Message(MessageType.DATA_EXCL, 4, 0, 1, requester=1,
                         req_id=getx.req_id, value=0, acks_expected=0))
    sim.run(until=sim.now + 10)
    assert node.tx is not None and node.tx.active
    assert 0 in node.tx.read_set and 4 in node.tx.write_set
    net.clear()
    return node.tx


def _fwd_getx(addr, req_ts, terminal=False, u_bit=False, req_node=2):
    return Message(MessageType.FWD_GETX, addr, 0, 1, requester=req_node,
                   req_id=99, tx=TxTag(req_node, req_ts),
                   acks_expected=1, terminal=terminal, u_bit=u_bit)


def test_older_sharer_nacks(node_setup):
    sim, node, net, stats = node_setup
    tx = _start_tx(sim, node, net)
    node.receive(_fwd_getx(0, req_ts=tx.timestamp + 1000))
    sim.run(until=sim.now + 5)
    resp = net.pop(MessageType.NACK)
    assert resp.dst == 2 and not resp.mp_bit
    assert node.tx.active  # unharmed
    assert node.l1.resident(0)


def test_younger_sharer_aborts_and_acks(node_setup):
    sim, node, net, stats = node_setup
    tx = _start_tx(sim, node, net)
    node.receive(_fwd_getx(0, req_ts=-1))  # requester much older
    sim.run(until=sim.now + 5)
    resp = net.pop(MessageType.ACK)
    assert resp.aborted
    assert node.tx is None or not node.tx.active
    assert not node.l1.resident(0)  # invalidated


def test_abort_restores_written_value(node_setup):
    sim, node, net, stats = node_setup
    tx = _start_tx(sim, node, net)
    line = node.l1.lookup(4, touch=False)
    assert line.value == 1  # speculative increment applied
    node.receive(_fwd_getx(0, req_ts=-1))  # kills the tx via line 0
    sim.run(until=sim.now + 5)
    assert node.l1.lookup(4, touch=False).value == 0  # undo restored


def test_owner_path_supplies_data_terminal(node_setup):
    sim, node, net, stats = node_setup
    tx = _start_tx(sim, node, net)
    # non-conflicting owner-path request for line 4 from an OLDER tx:
    # the young owner aborts and must supply the RESTORED value
    node.receive(_fwd_getx(4, req_ts=-1, terminal=True))
    sim.run(until=sim.now + 5)
    resp = net.pop(MessageType.DATA_EXCL)
    assert resp.terminal and resp.aborted
    assert resp.value == 0  # pre-transaction value
    assert not node.l1.resident(4)


def test_owner_path_nack_when_older(node_setup):
    sim, node, net, stats = node_setup
    tx = _start_tx(sim, node, net)
    node.receive(_fwd_getx(4, req_ts=tx.timestamp + 1000, terminal=True))
    sim.run(until=sim.now + 5)
    resp = net.pop(MessageType.NACK)
    assert resp.terminal
    assert node.l1.lookup(4, touch=False).value == 1  # still speculative


def test_ubit_probe_never_granted_even_without_conflict(node_setup):
    sim, node, net, stats = node_setup
    tx = _start_tx(sim, node, net)
    # probe for line 8 which the tx does NOT touch -> MP nack
    node.receive(_fwd_getx(8, req_ts=tx.timestamp + 1000, terminal=True,
                           u_bit=True))
    sim.run(until=sim.now + 5)
    resp = net.pop(MessageType.NACK)
    assert resp.u_bit and resp.mp_bit
    assert node.tx.active  # nothing aborted


def test_ubit_probe_true_conflict_nacks_without_mp(node_setup):
    sim, node, net, stats = node_setup
    tx = _start_tx(sim, node, net)
    node.receive(_fwd_getx(0, req_ts=tx.timestamp + 1000, terminal=True,
                           u_bit=True))
    sim.run(until=sim.now + 5)
    resp = net.pop(MessageType.NACK)
    assert resp.u_bit and not resp.mp_bit
    assert node.l1.resident(0)  # probe never invalidates


def test_ubit_probe_younger_tx_mp(node_setup):
    sim, node, net, stats = node_setup
    tx = _start_tx(sim, node, net)
    node.receive(_fwd_getx(0, req_ts=-1, terminal=True, u_bit=True))
    sim.run(until=sim.now + 5)
    resp = net.pop(MessageType.NACK)
    assert resp.mp_bit
    assert node.tx.active  # conservative nack, no abort
    assert stats.puno_mp_younger == 1


def test_fwd_gets_downgrades_read_line(node_setup):
    sim, node, net, stats = node_setup
    tx = _start_tx(sim, node, net)
    # force line 0 into an ownable state first: it arrived as DATA (S);
    # use line 4 instead (M, written) with an OLDER reader
    node.receive(Message(MessageType.FWD_GETS, 4, 0, 1, requester=2,
                         req_id=98, tx=TxTag(2, -1), acks_expected=1,
                         terminal=True))
    sim.run(until=sim.now + 5)
    wb = net.pop(MessageType.WB_DATA)
    data = net.pop(MessageType.DATA)
    assert wb.value == data.value == 0  # restored pre-tx value
    assert data.aborted
    assert node.l1.state_of(4) is L1State.S


def test_fwd_gets_nacked_by_older_writer(node_setup):
    sim, node, net, stats = node_setup
    tx = _start_tx(sim, node, net)
    node.receive(Message(MessageType.FWD_GETS, 4, 0, 1, requester=2,
                         req_id=98, tx=TxTag(2, tx.timestamp + 1000),
                         acks_expected=1, terminal=True))
    sim.run(until=sim.now + 5)
    resp = net.pop(MessageType.NACK)
    assert resp.terminal
    assert node.tx.active


def test_stale_sharer_plain_ack(node_setup):
    sim, node, net, stats = node_setup
    _start_tx(sim, node, net)
    # forwarded invalidation for a line this node never touched
    node.receive(_fwd_getx(12, req_ts=5))
    sim.run(until=sim.now + 5)
    resp = net.pop(MessageType.ACK)
    assert not resp.aborted


# ---------------------------------------------------------------------
# protocol invariants: explicit raises, so they hold under python -O
# ---------------------------------------------------------------------

def _outstanding_gets(sim, node, net):
    """Start the node and return its first GETS (line 0), in flight."""
    node.start()
    sim.run(until=sim.now + 10)
    gets = net.pop(MessageType.GETS)
    assert node.mshr is not None and node.mshr.req_id == gets.req_id
    return gets


def test_second_outstanding_request_raises(node_setup):
    sim, node, net, stats = node_setup
    _outstanding_gets(sim, node, net)
    with pytest.raises(AssertionError, match="second outstanding"):
        node._issue(TxOp(False, 8, 1, 9), exclusive=False)


def test_upgrade_grant_without_s_copy_raises(node_setup):
    sim, node, net, stats = node_setup
    gets = _outstanding_gets(sim, node, net)
    with pytest.raises(AssertionError, match="without an S copy"):
        node.receive(Message(MessageType.GRANT, 0, 0, 1, requester=1,
                             req_id=gets.req_id, acks_expected=0))


def test_completion_without_grant_raises(node_setup):
    sim, node, net, stats = node_setup
    gets = _outstanding_gets(sim, node, net)
    with pytest.raises(AssertionError, match="without a grant"):
        node.receive(Message(MessageType.ACK, 0, 2, 1, requester=1,
                             req_id=gets.req_id, terminal=True))


def test_undo_target_not_resident_raises(node_setup):
    sim, node, net, stats = node_setup
    _start_tx(sim, node, net)
    node.l1.invalidate(4)  # the write-set line the undo log restores
    with pytest.raises(AssertionError, match="undo target 4"):
        node._self_abort("getx_conflict")


def test_self_abort_without_active_tx_raises(node_setup):
    sim, node, net, stats = node_setup
    assert node.tx is None
    with pytest.raises(AssertionError, match="no active transaction"):
        node._self_abort("getx_conflict")


def test_abort_handling_without_doomed_tx_raises(node_setup):
    sim, node, net, stats = node_setup
    _start_tx(sim, node, net)
    with pytest.raises(AssertionError, match="without a doomed"):
        node._handle_abort()


def test_capacity_pressure_without_tx_raises(node_setup):
    sim, node, net, stats = node_setup
    sets, ways = node.l1._num_sets, node.config.cache.ways
    for way in range(ways):
        node.l1.install(way * sets, L1State.S, 0)
        node.l1.pin(way * sets, level=2)
    with pytest.raises(AssertionError, match="capacity pressure"):
        node._install(ways * sets, L1State.S, 0)
