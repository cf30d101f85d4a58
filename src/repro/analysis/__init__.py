"""Post-processing, reporting and experiment harnesses.

* :mod:`repro.analysis.metrics` — derived metrics (normalization,
  G/D ratio aggregation),
* :mod:`repro.analysis.falseabort` — the Fig. 2/3 classification,
* :mod:`repro.analysis.report` — ASCII table/series rendering,
* :mod:`repro.analysis.parallel` — process-pool sweep execution over
  picklable task descriptors,
* :mod:`repro.analysis.experiments` — the cells each paper table and
  figure shows, and one entry point per table and figure rendered
  from them (``repro experiment`` calls these),
* :mod:`repro.analysis.claims` — the paper's claims judged over the
  same cells.
"""

from repro.analysis.metrics import (
    normalized,
    geomean,
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
    "false_abort_rate",
    "victim_distribution",
    "render_table",
    "render_series",
    "experiments",
]
