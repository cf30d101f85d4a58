"""Ablation A3: TxLB sizing and the notification cap.

The TxLB feeds T_est; its capacity matters only past the number of
static transactions (the paper notes Bayes tops out at 15), while the
notification cap bounds how long a requester trusts one estimate.
"""

from repro.sim.config import SystemConfig
from repro.analysis.report import render_table

from conftest import run_cells, write_result


def _run():
    base_cfg = SystemConfig()
    variants = {
        "txlb=32 cap=256": base_cfg.with_puno(),
        "txlb=2 cap=256": base_cfg.with_puno(txlb_entries=2),
        "txlb=32 cap=64": base_cfg.with_puno(notification_cap=64),
        "txlb=32 uncapped": base_cfg.with_puno(notification_cap=0),
    }
    return run_cells({label: ("bayes", "puno", cfg)
                      for label, cfg in variants.items()})


def test_ablation_txlb(benchmark):
    stats = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for label, s in stats.items():
        rows.append({
            "variant": label,
            "aborts": s.tx_aborted,
            "exec": s.execution_cycles,
            "notified backoff cycles": s.puno_notified_backoff_cycles,
            "notifications": s.puno_notifications,
        })
    text = render_table(rows, title="A3 — TxLB size / notification cap "
                                    "(bayes)")
    write_result("ablation_txlb", text)
    # uncapped sleeps are strictly longer in total
    assert (stats["txlb=32 uncapped"].puno_notified_backoff_cycles
            >= stats["txlb=32 cap=256"].puno_notified_backoff_cycles)
