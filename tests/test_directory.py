"""Directory controller unit tests.

Drives one DirectoryController through a recording network, asserting
on the exact message choreography of each protocol flow.
"""

import pytest

from repro.coherence.directory import DirectoryController
from repro.coherence.states import DirState
from repro.core.bitset import mask_of
from repro.core.puno import DirectoryPUNO
from repro.network.message import Message, MessageType, TxTag
from repro.sim.config import small_config
from repro.sim.engine import Simulator
from repro.sim.stats import Stats

from repro.testing import RecordingNetwork


@pytest.fixture
def dirsetup():
    sim = Simulator()
    cfg = small_config(4)
    stats = Stats(4)
    net = RecordingNetwork(sim, stats)
    # home node 0; test lines use addr 0, 4, 8... (home 0 on 4 nodes)
    d = DirectoryController(sim, 0, cfg, net, stats)
    return sim, d, net, stats


def _gets(addr, src, req_id=1, tx=None):
    return Message(MessageType.GETS, addr, src, 0, requester=src,
                   req_id=req_id, tx=tx)


def _getx(addr, src, req_id=1, tx=None):
    return Message(MessageType.GETX, addr, src, 0, requester=src,
                   req_id=req_id, tx=tx)


def _unblock(addr, src, req_id=1, success=True, survivors=(),
             mp_node=-1):
    return Message(MessageType.UNBLOCK, addr, src, 0, requester=src,
                   req_id=req_id, success=success,
                   survivors=tuple(survivors),
                   mp_bit=mp_node >= 0, mp_node=mp_node)


def test_gets_cold_fetch_grants_exclusive(dirsetup):
    sim, d, net, stats = dirsetup
    d.receive(_gets(0, src=1))
    entry = d.entries[0]
    assert entry.blocked  # blocked during the memory fetch
    sim.run()
    resp = net.pop(MessageType.DATA_EXCL)
    assert resp.dst == 1 and resp.acks_expected == 0
    assert entry.state is DirState.M and entry.owner == 1
    assert entry.in_l2 and not entry.blocked
    assert stats.l2_misses == 1


def test_second_fetch_is_l2_hit(dirsetup):
    sim, d, net, stats = dirsetup
    d.receive(_gets(0, src=1))
    sim.run()
    # owner writes back, then someone else fetches
    d.receive(Message(MessageType.PUT, 0, 1, 0, requester=1, value=5))
    sim.run()
    net.clear()
    t0 = sim.now
    d.receive(_gets(0, src=2))
    sim.run()
    resp = net.pop(MessageType.DATA_EXCL)
    assert resp.value == 5
    assert stats.l2_misses == 1  # no second memory fetch
    # L2 latency, not memory latency
    assert sim.now - t0 <= d.config.directory_latency + d.config.l2_latency


def test_gets_owner_path_forwards(dirsetup):
    sim, d, net, stats = dirsetup
    d.receive(_gets(0, src=1))
    sim.run()
    net.clear()
    d.receive(_gets(0, src=2, req_id=7))
    sim.run()
    fwd = net.pop(MessageType.FWD_GETS)
    assert fwd.dst == 1 and fwd.requester == 2 and fwd.terminal
    entry = d.entries[0]
    assert entry.blocked
    # owner downgrades: WB_DATA (carrying the forwarded request's
    # identifiers, as the owner node does) then requester UNBLOCKs
    d.receive(Message(MessageType.WB_DATA, 0, 1, 0, requester=2,
                      req_id=7, value=11))
    d.receive(_unblock(0, src=2, req_id=7))
    assert entry.state is DirState.S
    assert entry.sharers == mask_of({1, 2})
    assert entry.value == 11
    assert not entry.blocked


def test_gets_owner_path_fail_keeps_owner(dirsetup):
    sim, d, net, stats = dirsetup
    d.receive(_gets(0, src=1))
    sim.run()
    d.receive(_gets(0, src=2, req_id=7))
    sim.run()
    d.receive(_unblock(0, src=2, req_id=7, success=False))
    entry = d.entries[0]
    assert entry.state is DirState.M and entry.owner == 1


def _make_shared(dirsetup, sharers):
    """Bring line 0 to S state with the given sharer set."""
    sim, d, net, stats = dirsetup
    first, *rest = sharers
    d.receive(_gets(0, src=first))
    sim.run()
    for i, s in enumerate(rest):
        d.receive(_gets(0, src=s, req_id=100 + i))
        sim.run()
        if i == 0:
            # owner path: simulate downgrade
            d.receive(Message(MessageType.WB_DATA, 0, first, 0,
                              requester=s, req_id=100 + i, value=0))
            d.receive(_unblock(0, src=s, req_id=100 + i))
        sim.run()
    net.clear()
    return d.entries[0]


def test_getx_multicast_to_all_sharers(dirsetup):
    sim, d, net, stats = dirsetup
    entry = _make_shared(dirsetup, [1, 2, 3])
    assert entry.state is DirState.S and entry.sharers == mask_of({1, 2, 3})
    d.receive(_getx(0, src=1, req_id=9))
    sim.run()
    fwds = net.of_type(MessageType.FWD_GETX)
    assert {f.dst for f in fwds} == {2, 3}
    assert all(f.acks_expected == 2 and not f.terminal for f in fwds)
    # the upgrading requester holds S, so it gets a data-less GRANT
    grant = net.pop(MessageType.GRANT)
    assert grant.dst == 1 and grant.acks_expected == 2
    assert entry.blocked


def test_getx_success_unblock_transfers_ownership(dirsetup):
    sim, d, net, stats = dirsetup
    entry = _make_shared(dirsetup, [1, 2, 3])
    d.receive(_getx(0, src=1, req_id=9))
    sim.run()
    d.receive(_unblock(0, src=1, req_id=9, success=True))
    assert entry.state is DirState.M and entry.owner == 1
    assert entry.sharers == 0
    assert not entry.blocked


def test_getx_fail_keeps_nackers_and_requester(dirsetup):
    sim, d, net, stats = dirsetup
    entry = _make_shared(dirsetup, [1, 2, 3])
    d.receive(_getx(0, src=1, req_id=9))
    sim.run()
    # sharer 2 nacked (survivor), sharer 3 acked (invalidated)
    d.receive(_unblock(0, src=1, req_id=9, success=False, survivors=[2]))
    assert entry.state is DirState.S
    assert entry.sharers == mask_of({1, 2})  # upgrade requester keeps its copy


def test_getx_nonsharer_gets_data(dirsetup):
    sim, d, net, stats = dirsetup
    _make_shared(dirsetup, [1, 2])
    d.receive(_getx(0, src=3, req_id=9))
    sim.run()
    data = net.pop(MessageType.DATA_EXCL)
    assert data.dst == 3 and data.acks_expected == 2


def test_getx_sole_sharer_fast_grant(dirsetup):
    sim, d, net, stats = dirsetup
    # two sharers, then the GETX invalidates down to one
    entry = _make_shared(dirsetup, [1, 2])
    d.receive(_getx(0, src=1, req_id=9))
    sim.run()
    d.receive(_unblock(0, src=1, req_id=9, success=False, survivors=[2]))
    net.clear()
    # now sharers = {1, 2}; drop 2 via success path from 2
    d.receive(_getx(0, src=2, req_id=10))
    sim.run()
    d.receive(_unblock(0, src=2, req_id=10, success=True))
    net.clear()
    assert entry.state is DirState.M and entry.owner == 2


def test_requests_queue_while_blocked(dirsetup):
    sim, d, net, stats = dirsetup
    entry = _make_shared(dirsetup, [1, 2, 3])
    d.receive(_getx(0, src=1, req_id=9))
    sim.run()
    assert entry.blocked
    d.receive(_gets(0, src=3, req_id=11))
    assert len(entry.waitq) == 1
    net.clear()
    d.receive(_unblock(0, src=1, req_id=9, success=True))
    sim.run()
    # queued GETS serviced after unblock: now owner path to node 1
    fwd = net.pop(MessageType.FWD_GETS)
    assert fwd.dst == 1 and fwd.requester == 3
    assert stats.dir_queue_wait_cycles >= 0


def test_put_from_owner_updates_value(dirsetup):
    sim, d, net, stats = dirsetup
    d.receive(_gets(0, src=1))
    sim.run()
    net.clear()
    d.receive(Message(MessageType.PUT, 0, 1, 0, requester=1, value=42))
    sim.run()
    entry = d.entries[0]
    assert entry.state is DirState.I and entry.value == 42
    ack = net.pop(MessageType.PUT_ACK)
    assert ack.dst == 1


def test_stale_put_ignored(dirsetup):
    sim, d, net, stats = dirsetup
    entry = _make_shared(dirsetup, [1, 2])
    # PUT from node 3 which is not the owner
    d.receive(Message(MessageType.PUT, 0, 3, 0, requester=3, value=99))
    sim.run()
    assert entry.value != 99
    assert net.of_type(MessageType.PUT_ACK)  # still acknowledged


def test_blocked_cycles_accounted_for_tx_getx(dirsetup):
    sim, d, net, stats = dirsetup
    _make_shared(dirsetup, [1, 2, 3])
    tag = TxTag(node=1, timestamp=5)
    d.receive(_getx(0, src=1, req_id=9, tx=tag))
    sim.run()
    before = stats.dir_blocked_cycles_txgetx
    sim.schedule(50, lambda: None)
    sim.run()
    d.receive(_unblock(0, src=1, req_id=9, success=True))
    assert stats.dir_blocked_cycles_txgetx > before
    assert stats.tx_getx_total == 1


def test_tx_getx_counted_per_service(dirsetup):
    sim, d, net, stats = dirsetup
    _make_shared(dirsetup, [1, 2])
    tag = TxTag(node=3, timestamp=5)
    for req_id in (9, 10):
        d.receive(_getx(0, src=3, req_id=req_id, tx=tag))
        sim.run()
        d.receive(_unblock(0, src=3, req_id=req_id, success=False,
                           survivors=[1, 2]))
        sim.run()
    assert stats.tx_getx_total == 2


class _CountingPUNO(DirectoryPUNO):
    """A PUNO unit that counts its UD-pointer recomputes."""

    recomputes = 0

    def after_service(self, entry):
        self.recomputes += 1
        super().after_service(entry)


def test_unblock_recomputes_ud_pointer_once():
    """Each UNBLOCK-completed service (an owner-path GETS, a multicast
    GETX whose UNBLOCK carries MP-bit feedback) recomputes the UD
    pointer once, after the feedback has been applied."""
    sim = Simulator()
    cfg = small_config(4)
    stats = Stats(4)
    net = RecordingNetwork(sim, stats)
    puno = _CountingPUNO(sim, 4, cfg.puno, stats)
    puno.stop()  # no rollover ticks, so sim.run() drains
    d = DirectoryController(sim, 0, cfg, net, stats, puno=puno)
    d.receive(_gets(0, src=1))
    sim.run()
    d.receive(_gets(0, src=2, req_id=7))
    sim.run()
    d.receive(Message(MessageType.WB_DATA, 0, 1, 0, requester=2,
                      req_id=7, value=0))
    before = puno.recomputes
    d.receive(_unblock(0, src=2, req_id=7))
    assert puno.recomputes == before + 1
    d.receive(_getx(0, src=1, req_id=9, tx=TxTag(node=1, timestamp=5)))
    sim.run()
    before = puno.recomputes
    d.receive(_unblock(0, src=1, req_id=9, success=False, survivors=[2],
                       mp_node=2))
    assert puno.recomputes == before + 1
    assert stats.puno_pbuffer_invalidations == 1
    assert d.entries[0].sharers == mask_of({1, 2})
