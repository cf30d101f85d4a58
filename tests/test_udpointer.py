"""Tests for UD-pointer maintenance."""

from repro.core.pbuffer import PBuffer
from repro.core.udpointer import recompute_ud
from repro.sim.config import PUNOConfig


def _pb(entries):
    pb = PBuffer(4, PUNOConfig())
    for node, ts in entries.items():
        pb.update(node, ts)
    return pb


def test_empty_sharers():
    assert recompute_ud([], _pb({})) is None


def test_oldest_usable_wins():
    pb = _pb({0: 30, 1: 10, 2: 20})
    assert recompute_ud([0, 1, 2], pb) == 1


def test_unusable_entries_skipped():
    pb = _pb({0: 30, 1: 10})
    pb.decay()  # both now validity 1: unusable
    assert recompute_ud([0, 1], pb) is None


def test_sharers_outside_pbuffer_history():
    pb = _pb({0: 30})
    assert recompute_ud([0, 3], pb) == 0  # node 3 never seen


def test_node_id_tiebreak():
    pb = _pb({2: 10, 1: 10})
    assert recompute_ud([1, 2], pb) == 1


def test_reader_epoch_filter():
    pb = _pb({0: 30, 1: 10})
    # node 1 is oldest but its recorded read happened under an older
    # transaction (epoch mismatch): only node 0 qualifies
    readers = {0: 30, 1: 5}
    assert recompute_ud([0, 1], pb, tx_readers=readers) == 0
    # with matching epochs node 1 wins again
    readers = {0: 30, 1: 10}
    assert recompute_ud([0, 1], pb, tx_readers=readers) == 1


def test_epoch_filter_requires_entry():
    pb = _pb({0: 30, 1: 10})
    assert recompute_ud([0, 1], pb, tx_readers={}) is None


def test_lifetime_gate_applies_with_now():
    pb = PBuffer(4, PUNOConfig(lifetime_factor=2.0, recency_window=10))
    pb.update(1, timestamp=0, length_hint=10, now=0)
    assert recompute_ud([1], pb, now=5) == 1
    assert recompute_ud([1], pb, now=1000) is None
