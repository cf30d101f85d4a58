"""Tests for the ATS-style adaptive transaction scheduler (extension)."""

import pytest

from repro.htm.contention.ats import ATSScheduler
from repro.htm.contention.puno_cm import PUNOBackoff
from repro.sim.config import small_config
from repro.sim.engine import Simulator
from repro.sim.stats import Stats
from repro.system import run_workload
from repro.workloads.synthetic import make_synthetic_workload


@pytest.fixture
def ats():
    cfg = small_config(4)
    cm = ATSScheduler(cfg, Stats(4))
    cm.sim = Simulator()
    return cm


def test_ci_rises_on_aborts_and_decays_on_commits(ats):
    assert ats.contention_intensity(0) == 0.0
    for _ in range(5):
        ats.on_abort(0)
    high = ats.contention_intensity(0)
    assert high > 0.5
    for _ in range(5):
        ats.on_commit(0)
    assert ats.contention_intensity(0) < high


def test_ci_per_node(ats):
    ats.on_abort(0)
    assert ats.contention_intensity(1) == 0.0


def test_low_ci_no_serialization(ats):
    ats.on_abort(0)  # CI = 0.25, below the 0.5 threshold
    assert ats.restart_backoff(0, 1) == 0
    assert ats.serialized == 0


def test_high_ci_serializes_through_ticket_queue(ats):
    for node in range(3):
        for _ in range(6):
            ats.on_abort(node)
    delays = [ats.restart_backoff(node, 6) for node in range(3)]
    assert ats.serialized == 3
    # tickets are strictly spaced: later nodes wait longer
    assert delays[0] < delays[1] < delays[2]


def test_slot_tracks_commit_lengths(ats):
    ats.on_commit(0, length=1000)
    ats.on_commit(0, length=1000)
    assert ats._slot > 500


def test_inner_delegation():
    cfg = small_config(4)
    stats = Stats(4)
    inner = PUNOBackoff(cfg, stats, avg_c2c=0.0)
    cm = ATSScheduler(cfg, stats, inner=inner)
    cm.sim = Simulator()
    # nack backoff goes to the inner (PUNO) manager
    assert cm.nack_backoff(0, 1, t_est=100, is_tx=True) == 100
    # restart with low CI delegates too (PUNO inner returns 0)
    assert cm.restart_backoff(0, 1) == 0


def test_ats_end_to_end_reduces_aborts_under_contention():
    wl = make_synthetic_workload(num_nodes=4, instances=10,
                                 shared_lines=4, tx_reads=3, tx_writes=2,
                                 seed=2)
    cfg = small_config(4)
    base = run_workload(cfg, wl, cm="baseline", max_cycles=10_000_000)
    ats = run_workload(cfg, wl, cm="ats", max_cycles=10_000_000)
    assert ats.stats.tx_committed == wl.total_instances()
    # under heavy contention, serialization cuts aborts
    assert ats.stats.tx_aborted < base.stats.tx_aborted


def test_ats_plus_puno_composition_runs():
    wl = make_synthetic_workload(num_nodes=4, instances=8,
                                 shared_lines=6, tx_reads=4, tx_writes=1,
                                 seed=3)
    cfg = small_config(4)
    r = run_workload(cfg, wl, cm="ats+puno", max_cycles=10_000_000)
    assert r.stats.tx_committed == wl.total_instances()
    assert r.cm_name == "ats"
