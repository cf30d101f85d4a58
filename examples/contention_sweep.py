#!/usr/bin/env python3
"""Sweep the contention level of a synthetic workload and watch where
PUNO's advantage appears.

The synthetic microbenchmark exposes the false-aborting driver
directly: every transaction reads ``tx_reads`` lines of one shared
region and writes a subset of them.  Shrinking the region raises the
probability that a write hits lines other transactions are reading —
more multicast invalidations, more false aborting, more for PUNO to
save.

Run:  python examples/contention_sweep.py
"""

from repro import SystemConfig, make_synthetic_workload, run_workload
from repro.analysis.report import render_table


def main() -> None:
    config = SystemConfig()
    rows = []
    for shared_lines in (512, 128, 64, 32, 16):
        wl = make_synthetic_workload(
            num_nodes=16, instances=16, shared_lines=shared_lines,
            tx_reads=6, tx_writes=2, think=2,
            writer_fraction=0.2, scanner_fraction=0.2,
            partition_writes=True)
        base = run_workload(config, wl, cm="baseline").stats
        puno = run_workload(config, wl, cm="puno").stats
        rows.append({
            "shared lines": shared_lines,
            "baseline abort %": round(100 * base.abort_rate(), 1),
            "false-aborting %": round(
                100 * base.false_aborting_fraction(), 1),
            "PUNO aborts x": round(
                puno.tx_aborted / max(base.tx_aborted, 1), 2),
            "PUNO traffic x": round(
                puno.flit_router_traversals
                / base.flit_router_traversals, 2),
            "PUNO exec x": round(
                puno.execution_cycles / base.execution_cycles, 2),
        })
    print(render_table(
        rows, title="Contention sweep: hotter region -> more false "
                    "aborting -> larger PUNO effect", floatfmt=".2f"))


if __name__ == "__main__":
    main()
