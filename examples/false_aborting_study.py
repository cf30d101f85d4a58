#!/usr/bin/env python3
"""Reproduce the paper's motivation study (Section II-C):

* Fig. 2 — what fraction of transactional write requests incur false
  aborting under the baseline HTM;
* Fig. 3 — how many transactions one false-aborting request kills.

Both figures read the baseline cells of the paper grid, so they share
the result store with ``repro experiment`` and the claims table.

Run:  python examples/false_aborting_study.py [scale]
"""

import sys

from repro.analysis.experiments import fig2, fig3
from repro.analysis.report import render_table


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.6

    f2 = fig2(scale)
    print(f2.text)

    # request breakdown (granted / nacked / false-aborting)
    rows = [{"workload": n,
             "granted %": round(100 * b["granted"], 1),
             "nacked (clean) %": round(100 * b["nacked_clean"], 1),
             "false aborting %": round(100 * b["false_aborting"], 1)}
            for n, b in f2.data["breakdown"].items()]
    print()
    print(render_table(rows, title="Transactional GETX breakdown",
                       floatfmt=".1f"))

    print()
    print(fig3(scale).text)


if __name__ == "__main__":
    main()
