#!/usr/bin/env python3
"""Watch abort/commit dynamics over time: how the baseline burns
transactions in its hot phase, and how PUNO calms it down.

Run:  python examples/abort_dynamics.py [workload] [scale]
"""

import sys

from repro import SystemConfig, make_stamp_workload
from repro.analysis.report import render_table
from repro.analysis.timeseries import TimeSeriesSampler
from repro.system import System


def run_with_sampler(name, scale, cfg, cm):
    sampler = TimeSeriesSampler(interval=2000)
    wl = make_stamp_workload(name, scale=scale)
    system = System(cfg, wl, cm, sampler=sampler)
    system.run()
    return sampler


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "bayes"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.6

    base = run_with_sampler(name, scale, SystemConfig(), "baseline")
    puno = run_with_sampler(name, scale, SystemConfig(), "puno")

    for label, sampler in [("baseline", base), ("PUNO", puno)]:
        rows = []
        for d in sampler.deltas():
            rows.append({
                "cycle": d["cycle"],
                "commits/kcyc": round(d["commits_per_kcycle"], 2),
                "aborts/kcyc": round(d["aborts_per_kcycle"], 2),
                "traffic/cyc": round(d["traffic_per_cycle"], 2),
            })
        print(render_table(rows, title=f"{name} under {label}",
                           floatfmt=".2f"))
        print()


if __name__ == "__main__":
    main()
