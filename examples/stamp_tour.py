#!/usr/bin/env python3
"""Run all eight STAMP analogues under the four schemes of the paper's
evaluation (baseline / random backoff / RMW-Pred / PUNO) and print the
normalized comparison — a miniature of Figs. 10, 11 and 13.

The grid fans out over worker processes (``jobs``; default all cores)
and goes through the on-disk result cache, so a second run at the same
scale replays instantly.  Set ``REPRO_NO_CACHE=1`` to force fresh
simulations.

Run:  python examples/stamp_tour.py [scale] [jobs]
"""

import os
import sys

from repro.analysis.experiments import SCHEME_ORDER, paper_spec
from repro.analysis.report import render_grouped
from repro.scenarios import run_scenario


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.4
    jobs = (int(sys.argv[2]) if len(sys.argv) > 2
            else int(os.environ.get("REPRO_JOBS", "0")))  # 0 = all cores
    print(f"Running 8 workloads x 4 schemes at scale {scale} "
          f"(jobs={jobs or 'auto'}) ...")
    result = run_scenario(paper_spec(scale), jobs=jobs,
                          verbose=True).sweep_result()

    for metric, title in [
        ("aborts", "normalized transaction aborts (Fig. 10)"),
        ("traffic", "normalized network traffic (Fig. 11)"),
        ("exec", "normalized execution time (Fig. 13)"),
        ("gd_ratio", "normalized G/D ratio (Fig. 14, higher is better)"),
    ]:
        table = result.normalized(metric)
        print()
        print(render_grouped(table.values, SCHEME_ORDER, title=title))


if __name__ == "__main__":
    main()
