"""The paper's claims as one checked table (``repro experiment claims``).

Each :class:`Claim` row states one ordering or bound the reproduction
claims for a table or figure: "PUNO cuts high-contention aborts" is
``mean aborts x HC/puno < 1``.  A side of a claim is an :class:`Agg`,
a metric read from one scheme's cells over a workload group and folded
by an aggregate; the bound is a constant, a ``(target, tolerance)``
pair or another :class:`Agg`.  A scheme is a registered one or a
:data:`~repro.analysis.experiments.VARIANTS` name (a registered
scheme with ``puno`` overrides, as the ablations need).  A row's
``figure`` also names the EXPERIMENTS.md summary row it backs: the
one whose Result starts with it.

:func:`check` simulates the distinct cells of every figure the rows
belong to (:data:`~repro.analysis.experiments.FIGURES`, the cells the
``repro experiment`` tables render from) with
:func:`~repro.analysis.experiments.run_cells`, so ``--jobs``, the
result store and ``--sanitize`` apply as to any grid.  :func:`judge`
reads plain ``Stats``, so tests can judge doctored ones.  :func:`check`
judges what it ran: exit 0 when every claim holds, 1 when one fails,
2 when a cell stalls or raises.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, \
    Tuple, Union

from repro.analysis.experiments import GROUPS, Cell, ExperimentResult, \
    cells, run_cells
from repro.analysis.falseabort import victim_distribution
from repro.analysis.metrics import METRICS, geomean, normalized
from repro.analysis.parallel import SweepExecutionError
from repro.analysis.report import render_table
from repro.core.hw_model import estimate_overhead
from repro.sim.config import SystemConfig
from repro.sim.stats import Stats

def _victim_mass_error(s: Stats) -> float:
    """How far Fig. 3's distribution is from summing to 1 (0 when it
    is empty: no false-aborting request, nothing to distribute)."""
    if s.false_abort_victims.total == 0:
        return 0.0
    return abs(sum(victim_distribution(s).values()) - 1.0)


#: Per-cell metrics.  A name ending in `` x`` is the :data:`METRICS`
#: entry normalized to the workload's baseline cell, as in Figs. 10-14.
CELL_METRICS: Dict[str, Callable[[Stats], float]] = {
    "aborts": METRICS["aborts"],
    "commits": METRICS["commits"],
    "abort %": lambda s: round(100 * s.abort_rate(), 1),
    "false-aborting %": lambda s: 100 * s.false_aborting_fraction(),
    "false-aborting GETX": lambda s: s.tx_getx_false_aborting,
    "victim mass error": _victim_mass_error,
    "multi-victim share": lambda s: sum(
        frac for k, frac in victim_distribution(s).items() if k >= 2),
    "unicasts": lambda s: s.puno_unicasts,
    "notifications": lambda s: s.puno_notifications,
    "notified backoff cycles": lambda s: s.puno_notified_backoff_cycles,
    "accuracy": lambda s: s.prediction_accuracy(),
}

#: Metrics of the model itself, read without simulating a cell.
STATIC_METRICS: Dict[str, Callable[[], float]] = {
    "nodes": lambda: SystemConfig().num_nodes,
    "area %": lambda: 100 * estimate_overhead()["area_overhead"],
    "power %": lambda: 100 * estimate_overhead()["power_overhead"],
}

AGGREGATES: Dict[str, Callable[[List[float]], float]] = {
    "value": lambda vals: vals[0], "mean": lambda v: sum(v) / len(v),
    "geomean": geomean, "min": min, "max": max, "sum": sum,
}

RELATIONS: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq,
}


def _fmt(value) -> str:
    """A printed bound or measured value: an aggregate by its text, an
    integral count in full, any other number to 4 digits."""
    if isinstance(value, Agg):
        return str(value)
    if isinstance(value, tuple):
        return f"{value[0]:g}±{value[1]:g}"
    return str(int(value)) if float(value).is_integer() else f"{value:.4g}"


@dataclass(frozen=True)
class Agg:
    """One side of a claim: ``how`` over ``metric`` of ``scheme``'s
    cells in ``group``.  A :data:`STATIC_METRICS` entry takes no scheme
    or group."""

    metric: str
    scheme: str = ""
    group: str = ""
    how: str = "value"

    def _workloads(self) -> Tuple[str, ...]:
        if self.metric in STATIC_METRICS:
            return ()
        return GROUPS.get(self.group, (self.group,))

    def cells(self) -> List[Cell]:
        """Every cell this side reads, baselines of a ratio included."""
        schemes = [self.scheme] + ["baseline"] * self.metric.endswith(" x")
        return [(w, s) for w in self._workloads() for s in schemes]

    def measure(self, stats: Mapping[Cell, Stats]) -> float:
        if self.metric in STATIC_METRICS:
            return STATIC_METRICS[self.metric]()
        if self.metric.endswith(" x"):
            fn = METRICS[self.metric[:-2]]
            vals = [normalized(fn(stats[(w, self.scheme)]),
                               fn(stats[(w, "baseline")]))
                    for w in self._workloads()]
        else:
            fn = CELL_METRICS[self.metric]
            vals = [fn(stats[(w, self.scheme)]) for w in self._workloads()]
        if self.how == "value" and len(vals) != 1:
            raise ValueError(f"{self}: 'value' needs one workload")
        return AGGREGATES[self.how](vals)

    def __str__(self) -> str:
        if self.metric in STATIC_METRICS:
            return self.metric
        how = "" if self.how == "value" else f"{self.how} "
        return f"{how}{self.metric} {self.group}/{self.scheme}"


@dataclass(frozen=True)
class Claim:
    """One row: ``lhs rel bound`` for ``figure``.  ``rel`` is a
    :data:`RELATIONS` key, or ``"±"`` with a ``(target, tolerance)``
    bound.  ``paper`` is the paper's figure ("—" where it gives none);
    ``note`` marks a row that only claims an ordering; a row with an
    unmet ``when`` guard reads "vacuous"."""

    figure: str
    lhs: Agg
    rel: str
    bound: Union[float, Tuple[float, float], Agg]
    paper: str = "—"
    note: str = ""
    when: Optional[Tuple[Agg, str, float]] = None

    def cells(self) -> List[Cell]:
        out = self.lhs.cells()
        if isinstance(self.bound, Agg):
            out += self.bound.cells()
        if self.when is not None:
            out += self.when[0].cells()
        return out

    def __str__(self) -> str:
        rel = "=" if self.rel == "±" else self.rel
        text = f"{self.lhs} {rel} {_fmt(self.bound)}"
        if self.when is not None:
            agg, rel, limit = self.when
            text += f" (when {agg} {rel} {_fmt(limit)})"
        return text


#: The note of a row whose margin is inside the seed noise (about
#: +-10% on HC at bench scale): only the ordering is claimed.
ORDERING = "ordering only: margin within seed noise"

CLAIMS: Tuple[Claim, ...] = (
    Claim("Table I", Agg("abort %", "baseline", "HC", "min"), ">",
          Agg("abort %", "baseline", "low", "max"), paper="47.9 > 7.4"),
    Claim("Table II", Agg("nodes"), "==", 16, paper="16"),
    Claim("Table III", Agg("area %"), "±", (0.41, 0.02), paper="0.41"),
    Claim("Table III", Agg("power %"), "±", (0.31, 0.02), paper="0.31"),
    Claim("Fig. 2", Agg("false-aborting %", "baseline", "HC", "max"), ">",
          10.0),
    Claim("Fig. 2", Agg("false-aborting %", "baseline", "non-HC", "max"),
          "<", 15.0),
    Claim("Fig. 2", Agg("false-aborting %", "baseline", "non-HC", "max"),
          "<", Agg("false-aborting %", "baseline", "HC", "max")),
    *(Claim("Fig. 3", Agg("victim mass error", "baseline", w), "<", 1e-9)
      for w in GROUPS["HC"]),
    Claim("Fig. 3", Agg("multi-victim share", "baseline", "HC", "sum"),
          ">", 0.0, paper="up to 5+ victims"),
    Claim("Fig. 10", Agg("aborts x", "puno", "HC", "mean"), "<", 1.0,
          paper="0.39"),
    Claim("Fig. 10", Agg("aborts x", "rmw", "kmeans"), "<", 0.5),
    Claim("Fig. 10", Agg("aborts x", "rmw", "ssca2"), "<", 0.7),
    Claim("Fig. 10", Agg("aborts x", "rmw", "HC", "mean"), ">",
          Agg("aborts x", "puno", "HC", "mean"), note=ORDERING),
    Claim("Fig. 10", Agg("aborts x", "rmw", "labyrinth"), ">",
          Agg("aborts x", "puno", "labyrinth"), note=ORDERING),
    Claim("Fig. 11", Agg("traffic x", "puno", "HC", "mean"), "<", 1.0,
          paper="0.67"),
    Claim("Fig. 11", Agg("traffic x", "rmw", "labyrinth"), ">", 1.0,
          paper="its worst case"),
    # directionally bounded: PUNO must not blow up directory occupancy
    Claim("Fig. 12", Agg("dir_blocking x", "puno", "HC", "mean"), "<", 1.5,
          paper="0.82"),
    Claim("Fig. 13", Agg("exec x", "puno", "all", "mean"), "<", 1.15),
    Claim("Fig. 13", Agg("exec x", "rmw", "HC", "mean"), ">",
          Agg("exec x", "puno", "HC", "mean"), paper="1.83 > 0.88",
          note=ORDERING),
    Claim("Fig. 14", Agg("gd_ratio x", "puno", "HC", "geomean"), ">", 1.0,
          paper="1.65"),
    Claim("A1", Agg("aborts", "unicast-only", "bayes"), "<",
          Agg("aborts", "baseline", "bayes")),
    Claim("A1", Agg("aborts", "puno", "bayes"), "<",
          Agg("aborts", "baseline", "bayes")),
    Claim("A1", Agg("notifications", "unicast-only", "bayes"), "==", 0),
    Claim("A1", Agg("unicasts", "notification-only", "bayes"), "==", 0),
    Claim("A2", Agg("unicasts", "threshold=2", "bayes"), "<=",
          Agg("unicasts", "puno", "bayes")),
    Claim("A3", Agg("notified backoff cycles", "uncapped", "bayes"), ">=",
          Agg("notified backoff cycles", "puno", "bayes")),
    # a workload with few unicasts says nothing about their accuracy
    *(Claim("A4/A5", Agg("accuracy", "puno", w), ">", 0.3, paper="0.9+",
            when=(Agg("unicasts", "puno", w), ">=", 20))
      for w in GROUPS["HC"]),
    Claim("Ext. ATS", Agg("commits", "ats+puno", "labyrinth"), "==",
          Agg("commits", "baseline", "labyrinth")),
    Claim("Ext. ATS", Agg("aborts", "ats", "labyrinth"), "<",
          Agg("aborts", "baseline", "labyrinth")),
    Claim("Ext. lazy", Agg("false-aborting GETX", "lazy", "bayes"), "==",
          0),
    Claim("Ext. lazy", Agg("commits", "lazy", "bayes"), "==",
          Agg("commits", "baseline", "bayes")),
    Claim("Ext. lazy", Agg("false-aborting GETX", "puno", "bayes"), "<",
          Agg("false-aborting GETX", "baseline", "bayes")),
)


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    measured: float
    bound: Union[float, Tuple[float, float]]
    status: str  # "holds", "FAILS" or "vacuous" (its guard is unmet)


def _compare(lhs: float, rel: str, bound) -> bool:
    if rel == "±":
        target, tolerance = bound
        return abs(lhs - target) < tolerance
    return RELATIONS[rel](lhs, bound)


def judge(rows: Iterable[Claim],
          stats: Mapping[Cell, Stats]) -> List[Verdict]:
    """One verdict per row over finished cells."""
    out = []
    for claim in rows:
        measured = claim.lhs.measure(stats)
        bound = (claim.bound.measure(stats)
                 if isinstance(claim.bound, Agg) else claim.bound)
        if claim.when is not None and not _compare(
                claim.when[0].measure(stats), *claim.when[1:]):
            status = "vacuous"
        else:
            ok = _compare(measured, claim.rel, bound)
            status = "holds" if ok else "FAILS"
        out.append(Verdict(claim, measured, bound, status))
    return out


def exit_code(verdicts: Iterable[Verdict]) -> int:
    return 1 if any(v.status == "FAILS" for v in verdicts) else 0


def check(scale: float = 0.4, seed: int = 0,
          jobs: int = 1) -> ExperimentResult:
    """Run and judge :data:`CLAIMS`, one printed line per row.  A cell
    that raises or stalls leaves every row unjudged (a stalled cell's
    counters stop at the stall), with ``data["exit_code"]`` 2."""
    try:
        results = run_cells(cells(c.figure for c in CLAIMS), scale, seed,
                            jobs)
    except SweepExecutionError as exc:
        return ExperimentResult("claims", {"exit_code": 2},
                                f"claims not judged: {exc}")
    stalled = [f"{w}/{s}" for (w, s), r in results.items()
               if r.stall is not None]
    if stalled:
        return ExperimentResult("claims", {"exit_code": 2},
                                "claims not judged: stalled cells "
                                + ", ".join(stalled))
    verdicts = judge(CLAIMS, {c: r.stats for c, r in results.items()})
    rows = [{"figure": v.claim.figure, "claim": str(v.claim),
             "measured": _fmt(v.measured), "bound": _fmt(v.bound),
             "paper": v.claim.paper, "verdict": v.status,
             "note": v.claim.note} for v in verdicts]
    held = sum(v.status != "FAILS" for v in verdicts)
    title = (f"claims at scale {scale:g}, seed {seed}: {held}/"
             f"{len(verdicts)} hold over {len(results)} cells")
    return ExperimentResult("claims", {"verdicts": verdicts,
                                       "exit_code": exit_code(verdicts)},
                            render_table(rows, title=title))
