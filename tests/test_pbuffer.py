"""Tests for the Transaction Priority Buffer (P-Buffer)."""

import pytest

from repro.core.pbuffer import PBuffer
from repro.sim.config import PUNOConfig


@pytest.fixture
def pb():
    return PBuffer(4, PUNOConfig())


def test_initially_unusable(pb):
    for n in range(4):
        assert not pb.usable(n)
        assert pb.priority(n) is None


def test_update_from_zero_bumps_twice(pb):
    """Paper: 'After updating the priority with 0 validity, the validity
    counter is incremented twice to allow a longer timeout period.'"""
    pb.update(1, timestamp=10)
    assert pb.validity(1) == 2
    assert pb.usable(1)  # validity 2 > threshold 1


def test_update_increments_and_saturates(pb):
    pb.update(1, 10)
    pb.update(1, 11)
    assert pb.validity(1) == 3
    pb.update(1, 12)
    assert pb.validity(1) == 3  # 2-bit cap


def test_decay(pb):
    pb.update(1, 10)  # validity 2
    pb.decay()
    assert pb.validity(1) == 1
    assert not pb.usable(1)
    pb.decay()
    assert pb.validity(1) == 0
    pb.decay()
    assert pb.validity(1) == 0  # floors at 0


def test_invalidate(pb):
    pb.update(1, 10)
    pb.invalidate(1)
    assert pb.validity(1) == 0
    assert pb.priority(1) is None
    assert not pb.usable(1)
    assert pb.invalidations == 1


def test_update_returns_previous(pb):
    assert pb.update(2, 10) is None
    assert pb.update(2, 20) == 10


def test_key_total_order(pb):
    pb.update(0, 10)
    pb.update(1, 10)
    assert pb.key(0) < pb.key(1)  # node id tiebreak
    assert pb.key(3) is None


def test_lifetime_gate():
    pb = PBuffer(4, PUNOConfig(lifetime_factor=2.0, recency_window=50))
    pb.update(1, timestamp=100, length_hint=10, now=100)
    # young entry: fine
    assert pb.usable(1, now=110)
    # older than 2x advertised length, and silent past the recency
    # window: stale
    assert not pb.usable(1, now=200)
    # same age but refreshed recently (a polling transaction): live
    pb.update(1, timestamp=100, length_hint=10, now=190)
    assert pb.usable(1, now=200)


def test_lifetime_gate_disabled():
    pb = PBuffer(4, PUNOConfig(lifetime_factor=0.0))
    pb.update(1, timestamp=0, length_hint=1, now=0)
    assert pb.usable(1, now=10**6)


def test_unknown_length_not_gated():
    pb = PBuffer(4, PUNOConfig())
    pb.update(1, timestamp=0, length_hint=0, now=0)
    assert pb.usable(1, now=10**6)


def test_capacity_check():
    with pytest.raises(ValueError):
        PBuffer(32, PUNOConfig(pbuffer_entries=16))


def test_validity_threshold_config():
    pb = PBuffer(4, PUNOConfig(validity_threshold=2))
    pb.update(1, 10)  # validity 2, threshold 2 -> not usable
    assert not pb.usable(1)
    pb.update(1, 11)  # validity 3
    assert pb.usable(1)


def test_negative_threshold_rejected():
    """The lazy usability test relies on validity_threshold >= 0."""
    with pytest.raises(ValueError):
        PBuffer(4, PUNOConfig(validity_threshold=-1))

