"""One entry point per paper table/figure, and the cells they show.

:data:`FIGURES` says which cells each table or figure shows; it is the
only such definition.  Each ``fig*``/``table*`` function simulates its
figure's cells through :func:`run_cells` and returns an
:class:`ExperimentResult` holding the raw data plus the rendered
rows/series the paper reports, for ``repro experiment``, the examples,
or a notebook.  The paper's claims about these tables and figures are
checked by :mod:`repro.analysis.claims` over the same cells, so a
figure rendered against the store of a claims run at the same scale
and seed simulates nothing.

Scale notes: ``scale`` multiplies per-node transaction counts in every
workload; ``repro experiment`` defaults to a reduced but
shape-preserving 0.4, at which the claims table runs in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, \
    Tuple

from repro.analysis.falseabort import breakdown, victim_distribution
from repro.analysis.metrics import METRICS, normalized
from repro.analysis.parallel import TaskResult, run_tasks_resilient
from repro.analysis.report import render_grouped, render_series, render_table
from repro.core.hw_model import estimate_overhead
from repro.scenarios import ScenarioSpec, WorkloadDef
from repro.scenarios.runner import scenario_tasks
from repro.sim.config import SystemConfig
from repro.sim.stats import Stats
from repro.workloads.stamp import HIGH_CONTENTION, STAMP_WORKLOADS

SCHEME_ORDER = ["baseline", "backoff", "rmw", "puno"]


@dataclass
class ExperimentResult:
    """Raw data + rendered text for one table/figure."""

    experiment: str
    data: Dict = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def paper_spec(scale: float = 1.0, seed: int = 0,
               schemes: Tuple[str, ...] = tuple(SCHEME_ORDER),
               names: Optional[List[str]] = None) -> ScenarioSpec:
    """The paper's evaluation grid (Section IV-A) as a scenario: the
    STAMP analogues on the 16-node Table II machine.  ``seed`` varies
    the workload instances only; the simulator seed stays at the Table
    II default of 1."""
    return ScenarioSpec(
        name="paper-eval",
        nodes=16,
        workloads=tuple(WorkloadDef(n)
                        for n in names or STAMP_WORKLOADS),
        schemes=schemes,
        scale=scale,
        seeds=(seed,),
        overrides={"system": {"seed": 1}},
    )


# =====================================================================
# Cells
# =====================================================================

#: One simulated cell: (STAMP workload, scheme or variant).
Cell = Tuple[str, str]

#: Workload groups a figure or claim can cover; any other group name is
#: one workload.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "all": tuple(STAMP_WORKLOADS),
    "HC": tuple(HIGH_CONTENTION),
    "low": ("genome", "kmeans", "ssca2"),  # Table I's; vacation is medium
    "non-HC": tuple(w for w in STAMP_WORKLOADS if w not in HIGH_CONTENTION),
}

#: Variant name -> (registered scheme, ``puno`` config overrides).
VARIANTS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "unicast-only": ("puno", {"notification_enabled": False}),
    "notification-only": ("puno", {"unicast_enabled": False}),
    "threshold=2": ("puno", {"validity_threshold": 2}),
    "fixed-timeout": ("puno", {"adaptive_timeout": False}),
    "no-decay": ("puno", {"timeout_scale": 1e6}),
    "txlb=2": ("puno", {"txlb_entries": 2}),
    "cap=64": ("puno", {"notification_cap": 64}),
    "uncapped": ("puno", {"notification_cap": 0}),
    "epoch-filter-off": ("puno", {"reader_epoch_filter": False}),
}

#: The cells each table or figure shows, as (group, schemes), all run
#: whether or not a claim reads them.  A default-config variant (full
#: PUNO, threshold 1, a 32-entry TxLB with cap 256, ...) is ``puno``.
FIGURES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "Table I": ("all", ("baseline",)),
    "Table II": ("", ()),
    "Table III": ("", ()),
    "Fig. 2": ("all", ("baseline",)),
    "Fig. 3": ("HC", ("baseline",)),
    **{fig: ("all", tuple(SCHEME_ORDER))
       for fig in ("Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13", "Fig. 14")},
    "A1": ("bayes", ("baseline", "unicast-only", "notification-only",
                     "puno")),
    "A2": ("bayes", ("puno", "threshold=2", "fixed-timeout", "no-decay")),
    "A3": ("bayes", ("puno", "txlb=2", "cap=64", "uncapped")),
    "A4/A5": ("HC", ("puno", "epoch-filter-off")),
    "Ext. ATS": ("labyrinth", ("baseline", "puno", "ats", "ats+puno")),
    "Ext. lazy": ("bayes", ("baseline", "puno", "lazy")),
}


def cells(figures: Iterable[str]) -> List[Cell]:
    """The distinct cells of the named :data:`FIGURES`, workload-major
    so cells sharing a workload build run together."""
    out: Dict[Cell, None] = {}
    for figure in figures:
        group, schemes = FIGURES[figure]
        for scheme in schemes:
            for w in GROUPS.get(group, (group,)):
                out[(w, scheme)] = None
    return sorted(out, key=lambda c: GROUPS["all"].index(c[0]))


def cell_spec(cell: Cell, scale: float, seed: int) -> ScenarioSpec:
    """One cell as a one-cell paper-grid scenario; a variant adds its
    ``puno`` overrides to the Table II envelope's."""
    workload, name = cell
    scheme, puno = VARIANTS.get(name, (name, {}))
    spec = paper_spec(scale, seed, (scheme,), [workload])
    if puno:
        spec = replace(spec, overrides={**spec.overrides, "puno": puno})
    return spec


def run_cells(cell_list: Sequence[Cell], scale: float, seed: int,
              jobs: int = 1) -> Dict[Cell, TaskResult]:
    """Simulate every cell in one ``scenario_tasks`` ->
    ``run_tasks_resilient`` call, so ``--jobs``, the result store and
    ``--sanitize`` apply as to any grid."""
    tasks = [scenario_tasks(cell_spec(c, scale, seed))[0]
             for c in cell_list]
    return dict(zip(cell_list, run_tasks_resilient(tasks, jobs)))


def figure_stats(figures: Iterable[str], scale: float, seed: int,
                 jobs: int = 1) -> Dict[Cell, Stats]:
    """The Stats of every cell the named figures show."""
    results = run_cells(cells(figures), scale, seed, jobs)
    return {c: r.stats for c, r in results.items()}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _finite_mean(values: List[float]) -> float:
    """The mean of the finite values (0.0 when there are none)."""
    finite = [v for v in values if math.isfinite(v)]
    return _mean(finite) if finite else 0.0


# =====================================================================
# Tables
# =====================================================================

def table1(scale: float = 1.0, seed: int = 0,
           jobs: int = 1) -> ExperimentResult:
    """Table I: benchmark inputs + measured baseline abort %."""
    rows = []
    stats = figure_stats(["Table I"], scale, seed, jobs)
    for name, meta in STAMP_WORKLOADS.items():
        s = stats[(name, "baseline")]
        rows.append({
            "benchmark": name,
            "paper input": meta.paper_input,
            "paper abort %": meta.paper_abort_pct,
            "measured abort %": round(100 * s.abort_rate(), 1),
            "high contention": "yes" if meta.high_contention else "no",
        })
    text = render_table(rows, title="Table I — benchmark abort rates",
                        floatfmt=".1f")
    return ExperimentResult("table1", {"rows": rows}, text)


def table2() -> ExperimentResult:
    """Table II: the simulated system configuration."""
    cfg = SystemConfig()
    text = "Table II — system configuration\n" + cfg.describe()
    return ExperimentResult("table2", {"config": cfg}, text)


def table3() -> ExperimentResult:
    """Table III: PUNO area/power overhead vs a Rock-class core."""
    est = estimate_overhead()
    rows = [
        {"component": "Prio-Buffer",
         "area um^2": round(est["pbuffer_area_um2"]),
         "power mW": round(est["pbuffer_power_mw"], 2)},
        {"component": "TxLB",
         "area um^2": round(est["txlb_area_um2"]),
         "power mW": round(est["txlb_power_mw"], 2)},
        {"component": "UD pointers",
         "area um^2": round(est["ud_area_um2"]),
         "power mW": round(est["ud_power_mw"], 2)},
        {"component": "Overall",
         "area um^2": round(est["total_area_um2"]),
         "power mW": round(est["total_power_mw"], 2)},
        {"component": "Overhead",
         "area um^2": f"{100 * est['area_overhead']:.2f}%",
         "power mW": f"{100 * est['power_overhead']:.2f}%"},
    ]
    text = render_table(rows, title="Table III — area and power overhead")
    return ExperimentResult("table3", {"rows": rows, "estimate": est}, text)


# =====================================================================
# Motivation figures (baseline only)
# =====================================================================

def fig2(scale: float = 1.0, seed: int = 0,
         jobs: int = 1) -> ExperimentResult:
    """Fig. 2: % of transactional GETX that trigger false aborts."""
    stats = figure_stats(["Fig. 2"], scale, seed, jobs)
    baseline = {w: stats[(w, "baseline")] for w in GROUPS["all"]}
    series = {n: 100 * s.false_aborting_fraction()
              for n, s in baseline.items()}
    series["average"] = sum(series.values()) / len(series)
    brk = {n: breakdown(s) for n, s in baseline.items()}
    text = render_series(series,
                         title="Fig. 2 — transactional GETX incurring "
                               "false aborting (%)",
                         unit="%", floatfmt=".1f")
    return ExperimentResult("fig2", {"series": series, "breakdown": brk},
                            text)


def fig3(scale: float = 1.0, seed: int = 0,
         jobs: int = 1) -> ExperimentResult:
    """Fig. 3: distribution of #unnecessarily-aborted transactions per
    false-aborting request (high-contention workloads)."""
    stats = figure_stats(["Fig. 3"], scale, seed, jobs)
    dists = {n: victim_distribution(stats[(n, "baseline")])
             for n in GROUPS["HC"]}
    rows = []
    buckets = sorted({k for d in dists.values() for k in d})
    for n, d in dists.items():
        row: Dict[str, object] = {"workload": n}
        for k in buckets:
            row[f"{k}" if k < 10 else "10+"] = round(100 * d.get(k, 0.0), 1)
        rows.append(row)
    text = render_table(
        rows, title="Fig. 3 — victims per false-aborting request "
                    "(% of cases)", floatfmt=".1f")
    return ExperimentResult("fig3", {"distributions": dists}, text)


# =====================================================================
# Evaluation figures (4-scheme comparisons)
# =====================================================================

#: Figs. 10-14: figure -> (``repro experiment`` name, metric, caption).
COMPARISONS: Dict[str, Tuple[str, str, str]] = {
    "Fig. 10": ("fig10", "aborts", "normalized transaction aborts"),
    "Fig. 11": ("fig11", "traffic", "normalized network traffic"),
    "Fig. 12": ("fig12", "dir_blocking", "normalized directory blocking"),
    "Fig. 13": ("fig13", "exec", "normalized execution time"),
    "Fig. 14": ("fig14", "gd_ratio", "normalized G/D ratio"),
}


@dataclass(frozen=True)
class SweepResult:
    """Figs. 10-14's Stats as ``stats[workload][scheme]``: the shape
    the end-to-end benchmark harness reads from ``data["sweep"]``.
    ``data["stats"]`` holds the same Stats keyed by cell."""

    stats: Dict[str, Dict[str, Stats]]


def _normalized(figure: str, stats: Mapping[Cell, Stats]
                ) -> Dict[str, Dict[str, float]]:
    """``figure``'s metric per workload and scheme, over the
    workload's baseline cell.  A missing cell raises naming it: a
    crashed or skipped cell never yields a partial table."""
    missing = [f"{w}/{s}" for w, s in cells([figure]) if (w, s) not in stats]
    if missing:
        raise ValueError(f"{figure}: no Stats for cell(s) "
                         f"{', '.join(missing)}; refusing to render a "
                         f"partial table")
    fn = METRICS[COMPARISONS[figure][1]]
    return {w: {s: normalized(fn(stats[(w, s)]), fn(stats[(w, "baseline")]))
                for s in SCHEME_ORDER}
            for w in GROUPS["all"]}


def comparison(figure: str, stats: Mapping[Cell, Stats]
               ) -> ExperimentResult:
    """Render one of Figs. 10-14 from its cells' Stats; the averages
    are the claims table's ``mean <metric> x`` over ``HC`` and
    ``all``."""
    key, _, caption = COMPARISONS[figure]
    table = _normalized(figure, stats)
    hc_avg = {s: _mean([table[w][s] for w in GROUPS["HC"]])
              for s in SCHEME_ORDER}
    all_avg = {s: _mean([table[w][s] for w in GROUPS["all"]])
               for s in SCHEME_ORDER}
    view = {**table, "HC-average": hc_avg, "average": all_avg}
    sweep = SweepResult({w: {s: stats[(w, s)] for s in SCHEME_ORDER}
                         for w in GROUPS["all"]})
    return ExperimentResult(
        key,
        {"normalized": table, "hc_average": hc_avg, "average": all_avg,
         "stats": stats, "sweep": sweep},
        render_grouped(view, SCHEME_ORDER, title=f"{figure} — {caption}"),
    )


def fig10(scale: float = 1.0, seed: int = 0,
          jobs: int = 1) -> ExperimentResult:
    """Fig. 10: normalized transaction aborts."""
    return comparison("Fig. 10", figure_stats(["Fig. 10"], scale, seed, jobs))


def fig11(scale: float = 1.0, seed: int = 0,
          jobs: int = 1) -> ExperimentResult:
    """Fig. 11: normalized on-chip network traffic (router traversals)."""
    return comparison("Fig. 11", figure_stats(["Fig. 11"], scale, seed, jobs))


def fig12(scale: float = 1.0, seed: int = 0,
          jobs: int = 1) -> ExperimentResult:
    """Fig. 12: normalized directory blocked cycles on tx GETX."""
    return comparison("Fig. 12", figure_stats(["Fig. 12"], scale, seed, jobs))


def fig13(scale: float = 1.0, seed: int = 0,
          jobs: int = 1) -> ExperimentResult:
    """Fig. 13: normalized execution time."""
    return comparison("Fig. 13", figure_stats(["Fig. 13"], scale, seed, jobs))


def fig14(scale: float = 1.0, seed: int = 0,
          jobs: int = 1) -> ExperimentResult:
    """Fig. 14: normalized G/D ratio (larger is better)."""
    return comparison("Fig. 14", figure_stats(["Fig. 14"], scale, seed, jobs))


def full_evaluation(scale: float = 1.0, seed: int = 0,
                    jobs: int = 1) -> Dict[str, ExperimentResult]:
    """Figs. 10-14 from one run of the cells they share."""
    stats = figure_stats(COMPARISONS, scale, seed, jobs)
    return {key: comparison(figure, stats)
            for figure, (key, _, _) in COMPARISONS.items()}


def seed_averaged_evaluation(scale: float = 1.0, seeds: int = 3,
                             jobs: int = 1) -> Dict[str, ExperimentResult]:
    """Figs. 10-14 with per-workload normalized ratios averaged over
    ``seeds`` independently generated workload instances (seeds
    ``0..seeds-1``, each the claims cells of that seed).

    The smaller high-contention workloads are timing-sensitive (one
    reordered conflict can flip an abort count by ~10%); averaging
    seeds recovers statistically stable ratios without growing any
    single run.
    """
    runs = [figure_stats(COMPARISONS, scale, s, jobs) for s in range(seeds)]
    out: Dict[str, ExperimentResult] = {}
    for figure, (key, _, caption) in COMPARISONS.items():
        tables = [_normalized(figure, stats) for stats in runs]
        avg = {w: {s: _finite_mean([t[w][s] for t in tables])
                   for s in SCHEME_ORDER}
               for w in GROUPS["all"]}
        hc_avg = {s: _mean([avg[w][s] for w in GROUPS["HC"]])
                  for s in SCHEME_ORDER}
        text = render_grouped(
            {**avg, "HC-average": hc_avg}, SCHEME_ORDER,
            title=f"{figure} — {caption} (mean of {seeds} seeds)")
        out[key] = ExperimentResult(
            key, {"normalized": avg, "hc_average": hc_avg}, text)
    return out
