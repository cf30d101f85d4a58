#!/usr/bin/env python3
"""Run all eight STAMP analogues under the four schemes of the paper's
evaluation (baseline / random backoff / RMW-Pred / PUNO) and print the
normalized comparisons of Figs. 10-14.

The grid fans out over worker processes (``jobs``; default all cores)
and goes through the on-disk result cache, so a second run at the same
scale replays instantly.  Set ``REPRO_NO_CACHE=1`` to force fresh
simulations.

Run:  python examples/stamp_tour.py [scale] [jobs]
"""

import os
import sys

from repro.analysis.experiments import full_evaluation


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.4
    jobs = (int(sys.argv[2]) if len(sys.argv) > 2
            else int(os.environ.get("REPRO_JOBS", "0")))  # 0 = all cores
    print(f"Running 8 workloads x 4 schemes at scale {scale} "
          f"(jobs={jobs or 'auto'}) ...")
    for result in full_evaluation(scale, jobs=jobs).values():
        print()
        print(result.text)


if __name__ == "__main__":
    main()
