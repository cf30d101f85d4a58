"""Post-processing, reporting and experiment harnesses.

* :mod:`repro.analysis.metrics` — derived metrics (normalization,
  G/D ratio aggregation, high-contention averages),
* :mod:`repro.analysis.falseabort` — the Fig. 2/3 classification,
* :mod:`repro.analysis.report` — ASCII table/series rendering,
* :mod:`repro.analysis.sweep` — the Stats grid of one sweep,
* :mod:`repro.analysis.parallel` — process-pool sweep execution over
  picklable task descriptors,
* :mod:`repro.analysis.experiments` — one entry point per paper table
  and figure (``repro experiment`` calls these).
"""

from repro.analysis.metrics import (
    normalized,
    geomean,
    high_contention_average,
    MetricTable,
)
from repro.analysis.falseabort import (
    false_abort_rate,
    victim_distribution,
)
from repro.analysis.parallel import (
    SweepExecutionError,
    SweepTask,
    TaskResult,
    WorkloadSpec,
    run_tasks_resilient,
)
from repro.analysis.chaos import ChaosOutcome, ChaosReport
from repro.analysis.report import render_table, render_series
from repro.analysis.sweep import SweepResult

__all__ = [
    "SweepExecutionError",
    "SweepTask",
    "TaskResult",
    "WorkloadSpec",
    "run_tasks_resilient",
    "ChaosOutcome",
    "ChaosReport",
    "normalized",
    "geomean",
    "high_contention_average",
    "MetricTable",
    "false_abort_rate",
    "victim_distribution",
    "render_table",
    "render_series",
    "SweepResult",
    "experiments",
]
