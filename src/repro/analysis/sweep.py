"""The grid of one sweep as a rectangular table of Stats.

:class:`SweepResult` indexes a finished grid ``[workload][scheme]`` and
materializes :class:`~repro.analysis.metrics.MetricTable` objects for
any metric — the post-processing behind Figs. 10-14 and their
claims.  Grids themselves run through
:func:`repro.scenarios.run_scenario`; ``ScenarioResult.sweep_result()``
builds one of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.analysis.metrics import METRICS, MetricTable
from repro.sim.stats import Stats


@dataclass
class SweepResult:
    """All Stats from one sweep, indexed [workload][scheme].

    The grid must stay rectangular: :meth:`add` rejects duplicate
    cells and :meth:`table` rejects ragged grids, so a crashed or
    skipped worker can never yield a silently partial (and therefore
    wrongly normalized) table.
    """

    stats: Dict[str, Dict[str, Stats]] = field(default_factory=dict)

    def add(self, workload: str, scheme: str, stats: Stats) -> None:
        row = self.stats.setdefault(workload, {})
        if scheme in row:
            raise ValueError(
                f"duplicate sweep cell {workload!r}/{scheme!r}: "
                f"each (workload, scheme) pair may be added only once")
        row[scheme] = stats

    def schemes(self) -> Tuple[str, ...]:
        """Union of scheme names across rows, first-seen order."""
        seen: Dict[str, None] = {}
        for row in self.stats.values():
            for scheme in row:
                seen.setdefault(scheme, None)
        return tuple(seen)

    def _check_complete(self) -> None:
        expected = self.schemes()
        for wl, row in self.stats.items():
            missing = [s for s in expected if s not in row]
            if missing:
                raise ValueError(
                    f"incomplete sweep grid: workload {wl!r} is missing "
                    f"scheme(s) {missing} (did a sweep worker crash or "
                    f"a run get skipped?); refusing to build a partial "
                    f"table")

    def table(self, metric: str) -> MetricTable:
        self._check_complete()
        fn = METRICS[metric]
        t = MetricTable(metric)
        for wl, row in self.stats.items():
            for scheme, st in row.items():
                t.set(wl, scheme, fn(st))
        return t

    def normalized(self, metric: str,
                   baseline: str = "baseline") -> MetricTable:
        return self.table(metric).normalized_to(baseline)

