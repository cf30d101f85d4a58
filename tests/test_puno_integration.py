"""End-to-end PUNO behaviour (Section III operation examples, Fig. 4).

The ``fig4_workload`` fixture recreates the paper's running example:
TxA is a long, old reader of line X; TxB wants to write X; TxC/TxD are
short readers that the baseline's polling multicast keeps killing.
"""

import pytest

from repro.network.message import MessageType
from repro.sim.config import override_config, small_config
from repro.system import System, run_workload
from repro.workloads.base import Gap, TxInstance, TxOp, Workload
from repro.workloads.generator import read_ops


def _run(workload, cfg, cm):
    return run_workload(cfg, workload, cm=cm, max_cycles=5_000_000)


def test_fig4_baseline_exhibits_false_aborting(fig4_workload):
    cfg = small_config(4)
    s = _run(fig4_workload, cfg, "baseline").stats
    # the writer's polls repeatedly kill the young readers
    assert s.tx_getx_false_aborting > 20
    assert s.tx_aborted > 50
    assert s.puno_unicasts == 0


def test_fig4_puno_suppresses_false_aborting(fig4_workload):
    cfg = small_config(4)
    base = _run(fig4_workload, cfg, "baseline").stats
    puno = _run(fig4_workload, cfg, "puno").stats
    # the paper's headline effects, in their strongest setting:
    assert puno.tx_aborted < 0.3 * base.tx_aborted
    assert puno.flit_router_traversals < 0.75 * base.flit_router_traversals
    assert puno.execution_cycles < base.execution_cycles
    assert puno.tx_getx_false_aborting < 0.3 * base.tx_getx_false_aborting
    # the unicast goes to TxA and is essentially always right
    assert puno.puno_unicasts > 50
    assert puno.prediction_accuracy() > 0.9


def test_fig4_puno_same_commits(fig4_workload):
    cfg = small_config(4)
    base = _run(fig4_workload, cfg, "baseline").stats
    puno = _run(fig4_workload, cfg, "puno").stats
    assert base.tx_committed == puno.tx_committed


def test_unicast_probe_is_never_granted(fig4_workload):
    """U-bit requests are always nacked (Section III-C)."""
    cfg = small_config(4)
    s = _run(fig4_workload, cfg, "puno").stats
    # every unicast produced either a correct-prediction nack or an
    # MP-bit nack; none were acked
    assert (s.puno_correct_predictions + s.puno_mispredictions
            == s.puno_unicasts)


def test_notifications_issued_and_used():
    """T_est needs TxLB history: the long reader commits once (training
    the TxLB), then its second instance nacks the writer with a
    notification and the writer backs off accordingly."""
    X = 0
    long_reader = lambda k: TxInstance(
        0, read_ops([X], 1, 0) + [TxOp(False, 100 + 50 * k + i, 25, 10 + i)
                                  for i in range(30)], k)
    prog0 = [long_reader(0), Gap(10), long_reader(1)]
    # the writer arrives early in the *second* instance (which is the
    # older of the two by then, and whose static tx has TxLB history)
    prog1 = [Gap(8000), TxInstance(1, [TxOp(True, X, 1, 50)], 0)]
    wl = Workload("notify", [prog0, prog1, [Gap(1)], [Gap(1)]])
    cfg = override_config(small_config(4),
                          {"puno": {"min_nacker_length": 0}})
    s = _run(wl, cfg, "puno").stats
    assert s.puno_notifications > 0
    assert s.puno_notified_backoff_cycles > 0
    assert s.tx_committed == 3


def test_unicast_only_still_helps(fig4_workload):
    cfg = small_config(4)
    base = _run(fig4_workload, cfg, "baseline").stats
    uni = _run(fig4_workload,
               override_config(cfg, {"puno": {"notification_enabled": False}}),
               "puno").stats
    assert uni.tx_aborted < 0.6 * base.tx_aborted
    assert uni.puno_notifications == 0


def test_notification_only_reduces_polling(fig4_workload):
    cfg = small_config(4)
    base = _run(fig4_workload, cfg, "baseline").stats
    noti = _run(fig4_workload,
                override_config(cfg, {"puno": {"unicast_enabled": False}}),
                "puno").stats
    assert noti.puno_unicasts == 0
    # notified backoff means fewer GETX retries than 20-cycle polling
    assert noti.tx_getx_total < base.tx_getx_total


def test_misprediction_feedback_cycle():
    """Fig. 8(c2): a stale priority produces one MP round trip, the
    feedback invalidates the entry, and the retry multicasts."""
    X = 0
    # node1 runs a transaction that reads X and commits quickly; node2
    # then writes X while the P-Buffer at X's home still holds node1's
    # old (stale, older) priority.
    prog1 = [TxInstance(0, read_ops([X], 1, 0)), Gap(3000)]
    prog2 = [Gap(600),
             TxInstance(1, [TxOp(True, X, 1, 10)], 0)]
    wl = Workload("stale", [[Gap(1)], prog1, prog2, [Gap(1)]])
    # keep the entry artificially hot so the stale path triggers
    cfg = override_config(small_config(4), {"puno": {
        "lifetime_factor": 0.0, "min_nacker_length": 0,
        "timeout_scale": 1000.0}})
    r = run_workload(cfg, wl, cm="puno", max_cycles=1_000_000)
    s = r.stats
    assert s.tx_committed == 2
    if s.puno_unicasts:  # prediction fired on the stale entry
        assert s.puno_mispredictions >= 1
        assert s.puno_pbuffer_invalidations >= 1


def test_puno_audit_clean_on_stamp(cfg16=None):
    from repro.workloads.stamp import make_stamp_workload
    from repro.sim.config import SystemConfig
    wl = make_stamp_workload("intruder", scale=0.3)
    r = run_workload(SystemConfig(), wl, cm="puno",
                     max_cycles=50_000_000)
    assert r.stats.tx_committed == wl.total_instances()


def test_reader_epoch_filter_ablation(fig4_workload):
    """Disabling the epoch filter must not break correctness, only
    change prediction behaviour."""
    cfg = override_config(small_config(4),
                          {"puno": {"reader_epoch_filter": False}})
    r = _run(fig4_workload, cfg, "puno")
    assert r.stats.tx_committed > 0
