"""Tests for the contention managers."""

import random

import pytest

from repro.htm.contention.ats import ATSScheduler
from repro.htm.contention.fixed import FixedBackoff
from repro.htm.contention.puno_cm import PUNOBackoff
from repro.htm.contention.random_backoff import RandomBackoff
from repro.htm.contention.rmw_predictor import RMWPredictor
from repro.schemes import get_scheme, scheme_names
from repro.sim.config import SystemConfig, override_config, small_config
from repro.sim.stats import Stats


@pytest.fixture
def cfg():
    return small_config(4)


@pytest.fixture
def stats():
    return Stats(4)


def test_registry_contents(cfg, stats):
    """The five eager contention managers are registered schemes, each
    building its own manager class."""
    expected = {"baseline": FixedBackoff, "backoff": RandomBackoff,
                "rmw": RMWPredictor, "puno": PUNOBackoff,
                "ats": ATSScheduler}
    assert set(expected) <= set(scheme_names())
    for name, cls in expected.items():
        assert type(get_scheme(name).make_cm(cfg, stats)) is cls


def test_fixed_backoff_is_paper_constant(cfg, stats):
    cm = FixedBackoff(cfg, stats)
    assert cm.nack_backoff(0, retries=1, t_est=-1, is_tx=True) == 20
    assert cm.nack_backoff(0, retries=50, t_est=500, is_tx=True) == 20
    assert cm.restart_backoff(0, consecutive_aborts=5) == 0


def test_random_backoff_linear_growth(cfg, stats):
    cm = RandomBackoff(cfg, stats, random.Random(1))
    htm = cfg.htm
    for aborts in (1, 3, 10, 50):
        cap = htm.random_backoff_slot * min(aborts, htm.random_backoff_cap)
        samples = [cm.restart_backoff(0, aborts) for _ in range(50)]
        assert all(0 <= s <= cap for s in samples)
    # more aborts -> statistically longer backoff
    lo = sum(cm.restart_backoff(0, 1) for _ in range(200))
    hi = sum(cm.restart_backoff(0, 10) for _ in range(200))
    assert hi > lo


def test_random_backoff_keeps_fixed_nack_poll(cfg, stats):
    cm = RandomBackoff(cfg, stats, random.Random(1))
    assert cm.nack_backoff(0, 1, -1, True) == cfg.htm.nack_backoff


def test_rmw_predictor_trains_and_predicts(cfg, stats):
    cm = RMWPredictor(cfg, stats)
    cm.on_tx_begin(0)
    cm.train_load(0, pc=10, addr=5)
    assert not cm.predict_exclusive_load(0, 10)
    cm.train_store(0, addr=5)
    assert stats.rmw_trained == 1
    cm.on_tx_begin(0)
    assert cm.predict_exclusive_load(0, 10)
    assert stats.rmw_upgraded_loads == 1


def test_rmw_predictor_per_node_isolation(cfg, stats):
    cm = RMWPredictor(cfg, stats)
    cm.on_tx_begin(0)
    cm.train_load(0, 10, 5)
    cm.train_store(0, 5)
    assert not cm.predict_exclusive_load(1, 10)


def test_rmw_predictor_needs_same_tx_pairing(cfg, stats):
    cm = RMWPredictor(cfg, stats)
    cm.on_tx_begin(0)
    cm.train_load(0, 10, 5)
    cm.on_tx_begin(0)  # new transaction clears the first-loader map
    cm.train_store(0, 5)
    assert not cm.predict_exclusive_load(0, 10)


def test_rmw_predictor_capacity_lru(stats):
    cfg = small_config(4)
    import dataclasses
    cfg = dataclasses.replace(cfg, htm=dataclasses.replace(cfg.htm,
                                                           rmw_entries=2))
    cm = RMWPredictor(cfg, stats)
    cm.on_tx_begin(0)
    for pc in (1, 2, 3):  # trains 3 PCs into a 2-entry table
        cm.train_load(0, pc, pc + 100)
        cm.train_store(0, pc + 100)
    assert not cm.predict_exclusive_load(0, 1)  # LRU-evicted
    assert cm.predict_exclusive_load(0, 3)


def test_puno_backoff_uses_notification(cfg, stats):
    cm = PUNOBackoff(cfg, stats, avg_c2c=10.0)
    # T_est large: sleep T_est - 2*c2c, capped
    cap = cfg.puno.notification_cap
    assert cm.nack_backoff(0, 1, t_est=100, is_tx=True) == 80
    assert cm.nack_backoff(0, 1, t_est=10_000, is_tx=True) == cap
    # T_est too small: fall back to the fixed poll
    assert cm.nack_backoff(0, 1, t_est=15, is_tx=True) == 20
    # no notification
    assert cm.nack_backoff(0, 1, t_est=-1, is_tx=True) == 20


def test_puno_backoff_respects_disable(cfg, stats):
    cfg = override_config(cfg, {"puno": {"notification_enabled": False}})
    cm = PUNOBackoff(cfg, stats, avg_c2c=10.0)
    assert cm.nack_backoff(0, 1, t_est=100, is_tx=True) == 20


def test_puno_backoff_uncapped(cfg, stats):
    cfg = override_config(cfg, {"puno": {"notification_cap": 0}})
    cm = PUNOBackoff(cfg, stats, avg_c2c=0.0)
    assert cm.nack_backoff(0, 1, t_est=5000, is_tx=True) == 5000


def test_notified_backoff_cycles_stat(cfg, stats):
    cm = PUNOBackoff(cfg, stats, avg_c2c=0.0)
    cm.nack_backoff(0, 1, t_est=100, is_tx=True)
    assert stats.puno_notified_backoff_cycles == 100
