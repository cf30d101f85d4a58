"""One entry point per paper table/figure.

Each ``fig_*``/``table_*`` function runs the required simulations and
returns an :class:`ExperimentResult` holding the raw data plus the
rendered rows/series the paper reports, for ``repro experiment``, the
examples, or a notebook.  The paper's claims about these tables and
figures are checked by :mod:`repro.analysis.claims` over the same
cells.

Scale notes: ``scale`` multiplies per-node transaction counts in every
workload; ``repro experiment`` defaults to a reduced but
shape-preserving 0.4, at which the claims table runs in seconds.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.falseabort import breakdown, victim_distribution
from repro.analysis.metrics import MetricTable, high_contention_average
from repro.analysis.report import render_grouped, render_series, render_table
from repro.analysis.sweep import SweepResult
from repro.core.hw_model import estimate_overhead
from repro.scenarios import ScenarioSpec, WorkloadDef, run_scenario
from repro.sim.config import SystemConfig
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


def _paper_sweep(scale: float, seed: int, jobs: int = 1,
                 verbose: bool = False) -> SweepResult:
    return run_scenario(paper_spec(scale, seed), jobs=jobs,
                        verbose=verbose).sweep_result()


def _baseline_stats(scale: float, seed: int,
                    names: Optional[List[str]] = None,
                    jobs: int = 1):
    spec = paper_spec(scale, seed, ("baseline",), names)
    result = run_scenario(spec, jobs=jobs)
    return {wl.label: result.stats(wl.label, "baseline", seed)
            for wl in spec.workloads}


# =====================================================================
# Tables
# =====================================================================

def table1(scale: float = 1.0, seed: int = 0,
           jobs: int = 1) -> ExperimentResult:
    """Table I: benchmark inputs + measured baseline abort %."""
    rows = []
    stats = _baseline_stats(scale, seed, jobs=jobs)
    for name, meta in STAMP_WORKLOADS.items():
        s = stats[name]
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
    stats = _baseline_stats(scale, seed, jobs=jobs)
    series = {n: 100 * s.false_aborting_fraction() for n, s in stats.items()}
    series["average"] = sum(series.values()) / len(series)
    brk = {n: breakdown(s) for n, s in stats.items()}
    text = render_series(series,
                         title="Fig. 2 — transactional GETX incurring "
                               "false aborting (%)",
                         unit="%", floatfmt=".1f")
    return ExperimentResult("fig2", {"series": series, "breakdown": brk},
                            text)


def fig3(scale: float = 1.0, seed: int = 0,
         names: Optional[List[str]] = None,
         jobs: int = 1) -> ExperimentResult:
    """Fig. 3: distribution of #unnecessarily-aborted transactions per
    false-aborting request (high-contention workloads)."""
    names = names or list(HIGH_CONTENTION)
    stats = _baseline_stats(scale, seed, names, jobs=jobs)
    dists = {n: victim_distribution(s) for n, s in stats.items()}
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

def _comparison(metric: str, title: str, scale: float, seed: int,
                sweep_result: Optional[SweepResult] = None,
                jobs: int = 1) -> ExperimentResult:
    if sweep_result is None:
        sweep_result = _paper_sweep(scale, seed, jobs)
    table = sweep_result.normalized(metric)
    hc_avg = {
        s: high_contention_average(table.column(s), HIGH_CONTENTION)
        for s in SCHEME_ORDER
    }
    all_avg = table.average_row()
    view = dict(table.values)
    view["HC-average"] = hc_avg
    view["average"] = all_avg
    text = render_grouped(view, SCHEME_ORDER, title=title)
    return ExperimentResult(
        metric,
        {"normalized": table.values, "hc_average": hc_avg,
         "average": all_avg, "sweep": sweep_result},
        text,
    )


def fig10(scale: float = 1.0, seed: int = 0,
          sweep_result: Optional[SweepResult] = None,
          jobs: int = 1) -> ExperimentResult:
    """Fig. 10: normalized transaction aborts."""
    return _comparison("aborts", "Fig. 10 — normalized transaction aborts",
                       scale, seed, sweep_result, jobs=jobs)


def fig11(scale: float = 1.0, seed: int = 0,
          sweep_result: Optional[SweepResult] = None,
          jobs: int = 1) -> ExperimentResult:
    """Fig. 11: normalized on-chip network traffic (router traversals)."""
    return _comparison("traffic", "Fig. 11 — normalized network traffic",
                       scale, seed, sweep_result, jobs=jobs)


def fig12(scale: float = 1.0, seed: int = 0,
          sweep_result: Optional[SweepResult] = None,
          jobs: int = 1) -> ExperimentResult:
    """Fig. 12: normalized directory blocked cycles on tx GETX."""
    return _comparison("dir_blocking",
                       "Fig. 12 — normalized directory blocking",
                       scale, seed, sweep_result, jobs=jobs)


def fig13(scale: float = 1.0, seed: int = 0,
          sweep_result: Optional[SweepResult] = None,
          jobs: int = 1) -> ExperimentResult:
    """Fig. 13: normalized execution time."""
    return _comparison("exec", "Fig. 13 — normalized execution time",
                       scale, seed, sweep_result, jobs=jobs)


def fig14(scale: float = 1.0, seed: int = 0,
          sweep_result: Optional[SweepResult] = None,
          jobs: int = 1) -> ExperimentResult:
    """Fig. 14: normalized G/D ratio (larger is better)."""
    return _comparison("gd_ratio", "Fig. 14 — normalized G/D ratio",
                       scale, seed, sweep_result, jobs=jobs)


def full_evaluation(scale: float = 1.0, seed: int = 0,
                    verbose: bool = False,
                    jobs: int = 1) -> Dict[str, ExperimentResult]:
    """Run the whole evaluation section with one shared sweep."""
    result = _paper_sweep(scale, seed, jobs, verbose)
    return {
        "fig10": fig10(sweep_result=result),
        "fig11": fig11(sweep_result=result),
        "fig12": fig12(sweep_result=result),
        "fig13": fig13(sweep_result=result),
        "fig14": fig14(sweep_result=result),
    }


def seed_averaged_evaluation(scale: float = 1.0, seeds: int = 3,
                             verbose: bool = False, jobs: int = 1
                             ) -> Dict[str, ExperimentResult]:
    """Figs. 10-14 with per-workload normalized ratios averaged over
    ``seeds`` independently generated workload instances.

    The smaller high-contention workloads are timing-sensitive (one
    reordered conflict can flip an abort count by ~10%); averaging
    seeds recovers statistically stable ratios without growing any
    single run.
    """
    per_metric: Dict[str, List] = {m: [] for m in
                                   ("aborts", "traffic", "dir_blocking",
                                    "exec", "gd_ratio")}
    for s in range(seeds):
        result = _paper_sweep(scale, s, jobs, verbose)
        for metric, acc in per_metric.items():
            acc.append(result.normalized(metric))
    titles = {
        "aborts": ("fig10", "Fig. 10 — normalized transaction aborts"),
        "traffic": ("fig11", "Fig. 11 — normalized network traffic"),
        "dir_blocking": ("fig12", "Fig. 12 — normalized directory "
                                  "blocking"),
        "exec": ("fig13", "Fig. 13 — normalized execution time"),
        "gd_ratio": ("fig14", "Fig. 14 — normalized G/D ratio"),
    }
    out: Dict[str, ExperimentResult] = {}
    for metric, tables in per_metric.items():
        avg = MetricTable(metric=f"{metric} (mean of {seeds} seeds)")
        for wl in tables[0].workloads:
            for scheme in tables[0].schemes():
                vals = [t.get(wl, scheme) for t in tables]
                finite = [v for v in vals if math.isfinite(v)]
                avg.set(wl, scheme,
                        sum(finite) / len(finite) if finite else 0.0)
        key, title = titles[metric]
        hc_avg = {s: high_contention_average(avg.column(s),
                                             HIGH_CONTENTION)
                  for s in SCHEME_ORDER}
        view = dict(avg.values)
        view["HC-average"] = hc_avg
        text = render_grouped(view, SCHEME_ORDER,
                              title=f"{title} (mean of {seeds} seeds)")
        out[key] = ExperimentResult(
            key, {"normalized": avg.values, "hc_average": hc_avg}, text)
    return out
