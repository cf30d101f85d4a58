#!/usr/bin/env python3
"""Quickstart: simulate one STAMP-like workload under the baseline HTM
and under PUNO, and compare the headline metrics.

Run:  python examples/quickstart.py [workload] [scale]
"""

import sys

from repro import SystemConfig, make_stamp_workload, run_workload
from repro.analysis.report import render_table


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "bayes"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5

    config = SystemConfig()  # the paper's Table II machine
    print("Simulated CMP:")
    print(config.describe())
    print()

    workload = make_stamp_workload(name, scale=scale)
    print(f"Workload: {name} ({workload.total_instances()} transactions, "
          f"{workload.total_ops()} memory ops)")
    print()

    base = run_workload(config, workload, cm="baseline")
    puno = run_workload(config, workload, cm="puno")

    rows = []
    for label, r in [("baseline", base), ("PUNO", puno)]:
        s = r.stats
        rows.append({
            "scheme": label,
            "commits": s.tx_committed,
            "aborts": s.tx_aborted,
            "abort %": round(100 * s.abort_rate(), 1),
            "false-aborting GETX %": round(
                100 * s.false_aborting_fraction(), 1),
            "network traffic": s.flit_router_traversals,
            "exec cycles": s.execution_cycles,
            "G/D ratio": round(s.gd_ratio(), 2),
        })
    print(render_table(rows, title=f"{name}: baseline vs PUNO"))

    b, p = base.stats, puno.stats
    print()
    print(f"PUNO vs baseline: aborts x{p.tx_aborted / max(b.tx_aborted, 1):.2f}, "
          f"traffic x{p.flit_router_traversals / b.flit_router_traversals:.2f}, "
          f"exec x{p.execution_cycles / b.execution_cycles:.2f}, "
          f"prediction accuracy {100 * p.prediction_accuracy():.0f}%")


if __name__ == "__main__":
    main()
