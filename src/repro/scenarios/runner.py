"""The scenario matrix runner (``repro scenario run``).

Expands a :class:`~repro.scenarios.spec.ScenarioSpec` into its
workload x scheme x seed grid of picklable
:class:`~repro.analysis.parallel.SweepTask` descriptors and executes
them through the resilient sweep executor — the same machinery the
paper experiments use, so scenario runs get process-pool fan-out,
crashed-worker replacement and the content-addressed result store for
free (re-running an interrupted scenario with the cache on recomputes
only its missing cells).  Cells are ordered workload-major, then
scheme, then seed; the executor returns results in input order, so a
parallel run is bit-identical to a serial one.

A :class:`ScenarioResult` holds one
:class:`~repro.analysis.parallel.TaskResult` per cell and can render a
per-workload comparison table or write a *stats manifest*: one
``manifest.json`` summarizing every cell (headline metrics + canonical
snapshot digest) plus a full per-cell snapshot JSON under ``cells/``
for external tooling.

A fault cell (``spec.faults``) that stalls comes back as a result, not
an exception: its ``TaskResult.stall`` holds the watchdog's report, the
table gains a ``stall`` column, the manifest records the report, and
the result store never keeps the cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.parallel import (
    SweepTask,
    TaskResult,
    run_tasks_resilient,
)
from repro.analysis.report import render_table
from repro.analysis.sweep import SweepResult
from repro.scenarios.spec import ScenarioSpec
from repro.sim.resultcache import CacheLike
from repro.sim.stats import Stats

#: One cell's coordinates in the scenario matrix.
Cell = Tuple[str, str, int]  # (workload label, scheme, seed)


def scenario_cells(spec: ScenarioSpec) -> List[Cell]:
    """The matrix coordinates, workload-major then scheme then seed."""
    return [(wl.label, scheme, seed)
            for wl in spec.workloads
            for scheme in spec.schemes
            for seed in spec.seeds]


def scenario_tasks(spec: ScenarioSpec,
                   max_cycles: Optional[int] = None) -> List[SweepTask]:
    """The grid as resilient-executor task descriptors.

    The task's row label carries the seed (``label@s<seed>``) when the
    scenario sweeps more than one, so multi-seed grids stay
    rectangular in :class:`~repro.analysis.sweep.SweepResult` terms.
    """
    budget = max_cycles if max_cycles is not None else spec.max_cycles
    tasks: List[SweepTask] = []
    for wl in spec.workloads:
        for scheme in spec.schemes:
            for seed in spec.seeds:
                label = (wl.label if len(spec.seeds) == 1
                         else f"{wl.label}@s{seed}")
                tasks.append(SweepTask(
                    label, scheme, spec.config(scheme, seed),
                    wl.to_spec(spec.nodes, spec.scale, seed),
                    max_cycles=budget, audit=True, faults=spec.faults,
                ))
    return tasks


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    cells: List[Cell]
    results: List[TaskResult]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.results):
            raise ValueError(
                f"scenario grid mismatch: {len(self.cells)} cells but "
                f"{len(self.results)} results")

    # ------------------------------------------------------------------
    def stats(self, workload: str, scheme: str, seed: int = 0) -> Stats:
        for cell, result in zip(self.cells, self.results):
            if cell == (workload, scheme, seed):
                return result.stats
        raise KeyError(f"no cell {(workload, scheme, seed)!r} in "
                       f"scenario {self.spec.name!r}")

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cache_hit)

    def snapshot_digests(self) -> Dict[str, str]:
        """Canonical per-cell digests, keyed ``workload/scheme/seed``."""
        return {f"{c[0]}/{c[1]}/s{c[2]}": r.stats.snapshot_digest()
                for c, r in zip(self.cells, self.results)}

    def sweep_result(self) -> SweepResult:
        """The grid as a SweepResult (for MetricTable post-processing)."""
        out = SweepResult()
        for (wl, scheme, seed), r in zip(self.cells, self.results):
            label = wl if len(self.spec.seeds) == 1 else f"{wl}@s{seed}"
            out.add(label, scheme, r.stats)
        return out

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """Per-cell comparison table, normalized against the first
        scheme of the spec.  A ratio reads ``-`` when its cell or its
        base cell stalled: a stalled cell's counters stop at the stall,
        so nothing is normalized by or against them."""
        base_scheme = self.spec.schemes[0]
        rows: List[Dict[str, object]] = []
        by_cell = dict(zip(self.cells, self.results))
        for wl in self.spec.workloads:
            for seed in self.spec.seeds:
                base = by_cell[(wl.label, base_scheme, seed)]
                for scheme in self.spec.schemes:
                    r = by_cell[(wl.label, scheme, seed)]
                    st = r.stats
                    stalled = r.stall is not None or base.stall is not None
                    rows.append({
                        "workload": wl.label,
                        "seed": seed,
                        "scheme": scheme,
                        "commits": st.tx_committed,
                        "aborts": st.tx_aborted,
                        "abort %": round(100 * st.abort_rate(), 1),
                        "exec x": "-" if stalled else round(
                            st.execution_cycles
                            / max(base.stats.execution_cycles, 1), 3),
                        "traffic x": "-" if stalled else round(
                            st.flit_router_traversals
                            / max(base.stats.flit_router_traversals, 1),
                            3),
                        "cached": "yes" if r.cache_hit else "",
                    })
                    if self.spec.faults:
                        rows[-1]["stall"] = (r.stall.kind if r.stall
                                             else "")
        title = (f"scenario {self.spec.name}: {self.spec.nodes} nodes, "
                 f"x = vs {base_scheme}")
        return render_table(rows, title=title)

    def to_dict(self) -> Dict[str, object]:
        """The manifest body (without full per-cell snapshots)."""
        cells = []
        for (wl, scheme, seed), r in zip(self.cells, self.results):
            cells.append({
                "workload": wl,
                "scheme": scheme,
                "seed": seed,
                "snapshot_sha256": r.stats.snapshot_digest(),
                "cache_hit": bool(r.cache_hit),
                "wall_seconds": round(r.wall_seconds, 4),
                "summary": r.stats.summary(),
            })
            if r.stall is not None:
                cells[-1]["stall"] = r.stall.to_dict()
        return {"scenario": self.spec.to_dict(), "cells": cells}

    def write_manifest(self, outdir: Union[str, Path]) -> Path:
        """Write ``manifest.json`` + full per-cell snapshots under
        ``<outdir>/<scenario-name>/``; returns the manifest path."""
        root = Path(outdir) / self.spec.name
        cells_dir = root / "cells"
        cells_dir.mkdir(parents=True, exist_ok=True)
        manifest = root / "manifest.json"
        with open(manifest, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        for (wl, scheme, seed), r in zip(self.cells, self.results):
            path = cells_dir / f"{wl}_{scheme}_s{seed}.json"
            with open(path, "w") as fh:
                json.dump(r.stats.snapshot(), fh, sort_keys=True)
                fh.write("\n")
        return manifest


def run_scenario(spec: ScenarioSpec,
                 smoke: bool = False,
                 jobs: int = 1,
                 cache: CacheLike = True,
                 retries: int = 2,
                 task_timeout: Optional[float] = None,
                 max_cycles: Optional[int] = None,
                 verbose: bool = False,
                 checkpoint: object = None) -> ScenarioResult:
    """Execute one scenario's full matrix and return every cell.

    ``smoke=True`` runs the scaled-down :meth:`ScenarioSpec.smoke`
    variant.  ``jobs``/``cache``/``retries``/``task_timeout`` are
    passed straight to the resilient sweep executor, so a scenario run
    inherits process-pool fan-out and the on-disk result store.

    ``checkpoint`` exists only for the end-to-end benchmark harness,
    which still passes ``checkpoint=False``: it accepts ``False`` or
    ``None`` and does nothing (the result store is the checkpoint);
    anything else raises :class:`TypeError`.
    """
    if checkpoint is not None and checkpoint is not False:
        raise TypeError(f"run_scenario: checkpoint={checkpoint!r} is not "
                        f"supported; re-running with the cache on "
                        f"resumes a sweep")
    problems = spec.validate()
    if problems:
        raise ValueError(f"scenario {spec.name!r} is invalid: "
                         + "; ".join(problems))
    if smoke:
        spec = spec.smoke()
    tasks = scenario_tasks(spec, max_cycles=max_cycles)
    results = run_tasks_resilient(
        tasks, jobs, retries=retries, task_timeout=task_timeout,
        cache=cache)
    out = ScenarioResult(spec, scenario_cells(spec), results)
    if verbose:
        for (wl, scheme, seed), r in zip(out.cells, out.results):
            hit = " [cached]" if r.cache_hit else ""
            stall = (f" STALLED ({r.stall.kind} at cycle {r.stall.cycle})"
                     if r.stall else "")
            print(f"  {wl}/{scheme}/s{seed}: "
                  f"{r.stats.execution_cycles} cycles, "
                  f"{r.stats.tx_aborted} aborts "
                  f"({r.wall_seconds:.2f}s wall){hit}{stall}")
    return out
