"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's tables/figures at a reduced
but shape-preserving scale (override with ``REPRO_BENCH_SCALE=1.0``)
and writes the rendered rows/series to ``benchmarks/results/``.

The evaluation figures (10-14) share one 8-workload x 4-scheme grid,
computed once per session.  The grid fans out over
``REPRO_BENCH_JOBS`` worker processes (default: all cores) and goes
through the on-disk result cache, so a re-run at the same scale/seed
against unchanged sources replays instantly; set ``REPRO_NO_CACHE=1``
to force fresh simulations.

Wall-clock and per-layer timings are the job of the end-to-end
benchmark in ``benchmarks/e2e/``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.analysis.experiments import paper_spec
from repro.scenarios import run_scenario

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS",
                                str(os.cpu_count() or 1)))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_cells(cells):
    """Simulate ``{key: (stamp workload, scheme, config)}`` at the bench
    scale and seed through the sweep executor, and so through the
    result cache; returns ``{key: Stats}``."""
    from repro.analysis.parallel import SweepTask, WorkloadSpec, \
        run_tasks_resilient
    tasks = [SweepTask(str(key), scheme, config,
                       WorkloadSpec(name, scale=BENCH_SCALE,
                                    seed=BENCH_SEED))
             for key, (name, scheme, config) in cells.items()]
    results = run_tasks_resilient(tasks, BENCH_JOBS)
    return {key: r.stats for key, r in zip(cells, results)}


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture(scope="session")
def paper_sweep():
    """The 8 x 4 evaluation grid, shared by the Fig. 10-14 benches."""
    spec = paper_spec(BENCH_SCALE, BENCH_SEED)
    return run_scenario(spec, jobs=BENCH_JOBS).sweep_result()


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_jobs():
    return BENCH_JOBS
