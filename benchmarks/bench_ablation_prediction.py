"""Ablation A4/A5: unicast prediction accuracy per workload, with and
without the reader-epoch filter.

The paper claims a 90%+ unicast-destination hit rate (Section III-C).
Our synthetic workloads retain cached lines across transactions far
more aggressively than real STAMP footprints, so the reader-epoch
filter (a reproduction refinement, see DESIGN.md) is what keeps
accuracy usable; this bench quantifies both.
"""

from repro.sim.config import SystemConfig
from repro.analysis.report import render_table
from repro.workloads.stamp import HIGH_CONTENTION

from conftest import run_cells, write_result


def _run():
    return run_cells({
        (name, epoch): (name, "puno",
                        SystemConfig().with_puno(reader_epoch_filter=epoch))
        for name in HIGH_CONTENTION for epoch in (True, False)})


def test_ablation_prediction(benchmark):
    stats = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for (name, epoch), s in sorted(stats.items()):
        rows.append({
            "workload": name,
            "epoch filter": "on" if epoch else "off",
            "unicasts": s.puno_unicasts,
            "accuracy %": round(100 * s.prediction_accuracy(), 1),
            "mp (committed)": s.puno_mp_no_tx,
            "mp (no conflict)": s.puno_mp_no_conflict,
            "mp (younger)": s.puno_mp_younger,
        })
    text = render_table(rows, title="A4/A5 — prediction accuracy and the "
                                    "reader-epoch filter")
    write_result("ablation_prediction", text)
    for name in HIGH_CONTENTION:
        on = stats[(name, True)]
        if on.puno_unicasts >= 20:
            assert on.prediction_accuracy() > 0.3
