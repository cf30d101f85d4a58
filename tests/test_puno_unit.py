"""Unit tests for the directory-side PUNO unit."""

import pytest

from repro.coherence.directory import DirEntry
from repro.core.bitset import mask_of
from repro.core.puno import DirectoryPUNO
from repro.network.message import Message, MessageType, TxTag
from repro.sim.config import PUNOConfig, SystemConfig
from repro.sim.engine import Simulator
from repro.sim.stats import Stats


@pytest.fixture
def unit():
    sim = Simulator()
    stats = Stats(4)
    cfg = PUNOConfig(min_nacker_length=0)
    puno = DirectoryPUNO(sim, 4, cfg, stats)
    return sim, puno, stats


def _getx(src, ts, length_hint=0):
    return Message(MessageType.GETX, 0, src, 0, requester=src, req_id=1,
                   tx=TxTag(src, ts, 0, length_hint))


def _entry(sharers, readers=None, ud=None):
    e = DirEntry()
    e.sharers = mask_of(sharers)
    e.tx_readers = dict(readers or {})
    e.ud = ud
    return e


def test_observe_updates_pbuffer(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(1, ts=10))
    assert puno.pbuffer.priority(1) == 10
    assert stats.puno_pbuffer_updates == 1


def test_observe_ignores_non_transactional(unit):
    sim, puno, stats = unit
    puno.observe_request(Message(MessageType.GETX, 0, 1, 0))
    assert stats.puno_pbuffer_updates == 0


def test_predict_unicast_to_older_sharer(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(2, ts=5))
    entry = _entry({2, 3}, readers={2: 5}, ud=2)
    target = puno.predict_unicast(entry, _getx(1, ts=50), (2, 3))
    assert target == 2


def test_no_unicast_when_requester_older(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(2, ts=50))
    entry = _entry({2}, readers={2: 50}, ud=2)
    assert puno.predict_unicast(entry, _getx(1, ts=5), (2,)) is None
    assert stats.puno_declines["requester_older"] == 1


def test_fallback_recompute_when_ud_is_requester(unit):
    """The stored pointer may name the (upgrading) requester; the unit
    re-derives the best candidate among the actual targets."""
    sim, puno, stats = unit
    puno.observe_request(_getx(1, ts=5))
    puno.observe_request(_getx(2, ts=10))
    entry = _entry({1, 2}, readers={1: 5, 2: 10}, ud=1)
    target = puno.predict_unicast(entry, _getx(1, ts=5), (2,))
    assert target is None  # node 2 is younger than the requester
    entry2 = _entry({1, 2}, readers={1: 5, 2: 10}, ud=2)
    target2 = puno.predict_unicast(entry2, _getx(2, ts=10), (1,))
    assert target2 == 1


def test_epoch_mismatch_blocks_unicast(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(2, ts=99))  # node 2 now on a new tx
    entry = _entry({2}, readers={2: 5}, ud=2)  # read was under ts=5
    assert puno.predict_unicast(entry, _getx(1, ts=50), (2,)) is None


def test_short_nacker_gate():
    sim = Simulator()
    stats = Stats(4)
    cfg = PUNOConfig(min_nacker_length=200)
    puno = DirectoryPUNO(sim, 4, cfg, stats)
    puno.observe_request(_getx(2, ts=5, length_hint=50))
    entry = _entry({2}, readers={2: 5}, ud=2)
    assert puno.predict_unicast(entry, _getx(1, ts=50), (2,)) is None
    assert stats.puno_declines["short_nacker"] == 1


def test_unicast_disabled(unit):
    sim = Simulator()
    stats = Stats(4)
    puno = DirectoryPUNO(sim, 4, PUNOConfig(unicast_enabled=False), stats)
    entry = _entry({2}, readers={2: 5}, ud=2)
    assert puno.predict_unicast(entry, _getx(1, ts=50), (2,)) is None
    assert stats.puno_declines["disabled"] == 1


def test_feedback_invalidates(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(2, ts=5))
    puno.feedback_mispredict(2)
    assert not puno.pbuffer.usable(2)
    assert stats.puno_pbuffer_invalidations == 1


def test_after_service_maintains_ud(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(1, ts=20))
    puno.observe_request(_getx(2, ts=10))
    entry = _entry({1, 2}, readers={1: 20, 2: 10})
    puno.after_service(entry)
    assert entry.ud == 2


def test_rollover_timeout_decays(unit):
    sim, puno, stats = unit
    puno.observe_request(_getx(1, ts=10))
    assert puno.pbuffer.validity(1) == 2
    sim.run(until=10 * puno._timeout_period())
    assert puno.pbuffer.validity(1) == 0
    assert stats.puno_timeouts >= 2


def test_adaptive_timeout_tracks_length_hints(unit):
    sim, puno, stats = unit
    p0 = puno._timeout_period()
    for _ in range(10):
        puno.observe_request(_getx(1, ts=10, length_hint=100_000))
    assert puno._timeout_period() > p0


def test_fixed_timeout_when_adaptivity_off():
    sim = Simulator()
    puno = DirectoryPUNO(sim, 4, PUNOConfig(adaptive_timeout=False),
                         Stats(4))
    for _ in range(5):
        puno.observe_request(_getx(1, ts=10, length_hint=10**6))
    assert puno._timeout_period() == puno.config.fixed_timeout


@pytest.mark.parametrize("field", ["min_timeout", "fixed_timeout"])
def test_rollover_period_below_one_cycle_is_rejected(field):
    """A zero period would re-arm the counter in its own cycle forever:
    the clock, and with it the max_cycles watchdog, would stand still."""
    with pytest.raises(ValueError, match=field):
        PUNOConfig(adaptive_timeout=False, **{field: 0})
    with pytest.raises(ValueError, match=field):
        SystemConfig(puno=PUNOConfig(**{field: -1}))
    assert getattr(PUNOConfig(**{field: 1}), field) == 1


def test_stop_ends_timeout_rescheduling(unit):
    sim, puno, stats = unit
    puno.stop()
    sim.run()
    assert sim.idle()


def test_stop_moves_the_final_tick_count_into_stats(unit):
    """A stopped unit's count is final: the stats keep it as a plain
    int and drop the P-Buffer, so a finished run's result does not
    hold every directory's buffer alive."""
    sim, puno, stats = unit
    sim.run(until=3 * puno.pbuffer.period)
    puno.stop()
    puno.stop()  # idempotent
    assert stats.puno_timeouts == 3
    assert stats._rollover_counters == []
    sim.run()
    assert stats.puno_timeouts == puno.pbuffer.decays == 3


@pytest.mark.parametrize("adaptive", [True, False])
def test_cached_period_tracks_timeout_period(adaptive):
    """The rollover tick reschedules with a cached period; it must equal
    a fresh _timeout_period() after every request, whichever branch of
    the average-length update the request took."""
    sim = Simulator()
    puno = DirectoryPUNO(sim, 4, PUNOConfig(adaptive_timeout=adaptive),
                         Stats(4))
    assert puno.pbuffer.period == puno._timeout_period()
    requests = [_getx(1, ts=10, length_hint=5000),
                _getx(2, ts=20),              # first sight: no delta
                _getx(2, ts=900),             # priority-change delta
                _getx(2, ts=900),             # unchanged priority
                _getx(3, ts=40, length_hint=10**7),
                Message(MessageType.GETS, 0, 1, 0, requester=1, req_id=2),
                _getx(1, ts=50, length_hint=1)]
    for msg in requests:
        puno.observe_request(msg)
        assert puno.pbuffer.period == puno._timeout_period()
    if not adaptive:
        assert puno.pbuffer.period == puno.config.fixed_timeout


def test_tick_reschedules_at_cached_period(unit):
    """Each tick fires one period after the last, at the period in force
    when that tick ran."""
    sim, puno, stats = unit
    first = puno.pbuffer.period
    sim.run(until=first)
    assert stats.puno_timeouts == 1 and puno.pbuffer.decays == 1
    for _ in range(4):
        puno.observe_request(_getx(1, ts=10, length_hint=100_000))
    second = puno.pbuffer.period
    assert second > first
    sim.run(until=2 * first - 1)
    assert stats.puno_timeouts == 1
    sim.run(until=2 * first)
    assert stats.puno_timeouts == 2
    sim.run(until=2 * first + second)
    assert stats.puno_timeouts == 3
    puno.stop()
    sim.run()
    assert stats.puno_timeouts == 3
