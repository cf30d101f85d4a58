#!/usr/bin/env python3
"""Dissect PUNO's machinery on one workload: unicast coverage and
accuracy, P-Buffer dynamics, notification behaviour, and the component
ablation (unicast-only / notification-only / full).

Run:  python examples/puno_anatomy.py [workload] [scale]
"""

import sys

from repro import SystemConfig, make_stamp_workload, run_workload
from repro.analysis.report import render_table
from repro.sim.config import override_config


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "bayes"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.6
    base_cfg = SystemConfig()

    variants = {
        "baseline": ("baseline", base_cfg),
        "unicast-only": ("puno", override_config(
            base_cfg, {"puno": {"notification_enabled": False}})),
        "notification-only": ("puno", override_config(
            base_cfg, {"puno": {"unicast_enabled": False}})),
        "full PUNO": ("puno", base_cfg),
    }

    rows = []
    detail = {}
    for label, (cm, cfg) in variants.items():
        wl = make_stamp_workload(name, scale=scale)
        s = run_workload(cfg, wl, cm=cm).stats
        detail[label] = s
        rows.append({
            "variant": label,
            "aborts": s.tx_aborted,
            "traffic": s.flit_router_traversals,
            "exec": s.execution_cycles,
            "unicasts": s.puno_unicasts,
            "notifications": s.puno_notifications,
        })
    print(render_table(rows, title=f"PUNO component ablation on {name}"))

    s = detail["full PUNO"]
    total_pred = s.puno_unicasts + s.puno_multicasts
    print()
    print(f"Unicast coverage: {s.puno_unicasts}/{total_pred} "
          f"transactional GETX with sharers "
          f"({100 * s.puno_unicasts / max(total_pred, 1):.0f}%)")
    print(f"Prediction accuracy: {100 * s.prediction_accuracy():.0f}% "
          f"({s.puno_correct_predictions} correct, "
          f"{s.puno_mispredictions} mispredicted)")
    print(f"Misprediction causes: {s.puno_mp_no_tx} target-committed, "
          f"{s.puno_mp_no_conflict} no-conflict, "
          f"{s.puno_mp_younger} target-younger")
    print(f"Prediction declines: {dict(s.puno_declines)}")
    print(f"P-Buffer: {s.puno_pbuffer_updates} updates, "
          f"{s.puno_pbuffer_invalidations} MP invalidations, "
          f"{s.puno_timeouts} rollover timeouts")
    print(f"Notified backoff: {s.puno_notified_backoff_cycles} cycles "
          f"over {s.puno_notifications} notifications")


if __name__ == "__main__":
    main()
