"""Ablation A1: unicast-only vs notification-only vs full PUNO.

The paper motivates both halves of PUNO (Section III); this bench
quantifies each half's contribution on a high-contention workload.
"""

from repro.sim.config import SystemConfig
from repro.analysis.report import render_table

from conftest import run_cells, write_result


def _run_variants():
    base_cfg = SystemConfig()
    variants = {
        "baseline": ("baseline", base_cfg),
        "unicast-only": ("puno",
                         base_cfg.with_puno(notification_enabled=False)),
        "notification-only": ("puno",
                              base_cfg.with_puno(unicast_enabled=False)),
        "full-puno": ("puno", base_cfg.with_puno()),
    }
    return run_cells({label: ("bayes", cm, cfg)
                      for label, (cm, cfg) in variants.items()})


def test_ablation_components(benchmark):
    stats = benchmark.pedantic(_run_variants, rounds=1, iterations=1)
    base = stats["baseline"]
    rows = []
    for label, s in stats.items():
        rows.append({
            "variant": label,
            "aborts x": round(s.tx_aborted / max(base.tx_aborted, 1), 3),
            "traffic x": round(s.flit_router_traversals
                               / base.flit_router_traversals, 3),
            "exec x": round(s.execution_cycles / base.execution_cycles, 3),
            "unicasts": s.puno_unicasts,
            "notifications": s.puno_notifications,
        })
    text = render_table(rows, title="A1 — PUNO component ablation (bayes)")
    write_result("ablation_components", text)
    # each half alone must already reduce aborts on this workload
    assert stats["unicast-only"].tx_aborted < base.tx_aborted
    assert stats["full-puno"].tx_aborted < base.tx_aborted
    # and the mechanisms are actually exercised
    assert stats["unicast-only"].puno_notifications == 0
    assert stats["notification-only"].puno_unicasts == 0
