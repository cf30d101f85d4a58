"""Derived metrics shared by the experiment harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.sim.stats import Stats


def normalized(value: float, baseline: float) -> float:
    """value / baseline with a defined result for a zero baseline
    (0/0 normalizes to 1.0: both schemes saw nothing)."""
    if baseline == 0:
        return 1.0 if value == 0 else math.inf
    if math.isinf(baseline):
        # an infinite G/D ratio (zero discarded cycles) compares as
        # "equal" to another infinity and dominates any finite value
        return 1.0 if math.isinf(value) else 0.0
    return value / baseline


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0 and math.isfinite(v)]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def high_contention_average(per_workload: Mapping[str, float],
                            high: Iterable[str]) -> float:
    """Arithmetic mean over the paper's high-contention group."""
    vals = [per_workload[w] for w in high if w in per_workload]
    return sum(vals) / len(vals) if vals else 0.0


# Metric extractors used by sweeps and claims; each maps Stats -> value.
METRICS: Dict[str, Callable[[Stats], float]] = {
    "aborts": lambda s: s.tx_aborted,
    "commits": lambda s: s.tx_committed,
    "abort_rate": lambda s: s.abort_rate(),
    "traffic": lambda s: s.flit_router_traversals,
    "exec": lambda s: s.execution_cycles,
    "dir_blocking": lambda s: s.dir_blocked_cycles_txgetx,
    "gd_ratio": lambda s: s.gd_ratio(),
    "false_aborting": lambda s: s.false_aborting_fraction(),
}


@dataclass
class MetricTable:
    """workload x scheme -> metric value, with normalization helpers."""

    metric: str
    values: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def set(self, workload: str, scheme: str, value: float) -> None:
        self.values.setdefault(workload, {})[scheme] = value

    def get(self, workload: str, scheme: str) -> float:
        return self.values[workload][scheme]

    @property
    def workloads(self) -> List[str]:
        return list(self.values)

    def schemes(self) -> List[str]:
        seen: List[str] = []
        for row in self.values.values():
            for s in row:
                if s not in seen:
                    seen.append(s)
        return seen

    def normalized_to(self, baseline_scheme: str) -> "MetricTable":
        out = MetricTable(metric=f"{self.metric} (normalized)")
        for wl, row in self.values.items():
            base = row.get(baseline_scheme, 0.0)
            for scheme, v in row.items():
                out.set(wl, scheme, normalized(v, base))
        return out

    def column(self, scheme: str) -> Dict[str, float]:
        return {wl: row[scheme] for wl, row in self.values.items()
                if scheme in row}

    def average_row(self, workloads: Optional[Iterable[str]] = None
                    ) -> Dict[str, float]:
        """Arithmetic per-scheme mean over (a subset of) workloads."""
        wls = list(workloads) if workloads is not None else self.workloads
        out: Dict[str, float] = {}
        for scheme in self.schemes():
            vals = [self.values[w][scheme] for w in wls
                    if w in self.values and scheme in self.values[w]]
            if vals:
                out[scheme] = sum(vals) / len(vals)
        return out
