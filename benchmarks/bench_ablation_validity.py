"""Ablation A2: P-Buffer staleness control — validity threshold and
timeout adaptivity.

The paper's adaptive rollover timeout and 2-bit validity counters trade
unicast coverage against stale-priority mispredictions; this bench maps
that trade-off.
"""

from repro.sim.config import SystemConfig
from repro.analysis.report import render_table

from conftest import run_cells, write_result


def _run():
    base_cfg = SystemConfig()
    variants = {
        "threshold=1 adaptive": base_cfg.with_puno(),
        "threshold=2 adaptive": base_cfg.with_puno(validity_threshold=2),
        "threshold=1 fixed": base_cfg.with_puno(adaptive_timeout=False),
        "no-decay (scale=1e6)": base_cfg.with_puno(timeout_scale=1e6),
    }
    return run_cells({label: ("bayes", "puno", cfg)
                      for label, cfg in variants.items()})


def test_ablation_validity(benchmark):
    stats = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for label, s in stats.items():
        rows.append({
            "variant": label,
            "unicasts": s.puno_unicasts,
            "accuracy %": round(100 * s.prediction_accuracy(), 1),
            "aborts": s.tx_aborted,
            "exec": s.execution_cycles,
        })
    text = render_table(rows,
                        title="A2 — validity/timeout staleness control "
                              "(bayes)")
    write_result("ablation_validity", text)
    # a stricter threshold can only reduce the number of unicasts
    assert (stats["threshold=2 adaptive"].puno_unicasts
            <= stats["threshold=1 adaptive"].puno_unicasts)
