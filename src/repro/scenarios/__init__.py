"""Declarative experiment scenarios.

A *scenario* names a complete, reproducible experiment: mesh size,
workload set (STAMP analogues, synthetic microbenchmarks or the
scale-oriented contention families), the scheme grid to compare,
configuration overrides, an optional fault profile, and the seed sweep
axis.  The registry ships scenarios that push past the paper's 16-node
envelope — 32- and 64-node meshes where sharer counts, P-Buffer
staleness and TxLB estimates are stressed well beyond anything the
paper measured — and the matrix runner executes a scenario's
workload x scheme x seed grid through the resilient/parallel sweep
machinery (one content-addressed result store, which is also how an
interrupted run resumes, and per-cell manifests).

Entry points:

* :class:`~repro.scenarios.spec.ScenarioSpec` — the declarative spec,
* :mod:`~repro.scenarios.registry` — built-in scenarios
  (``get_scenario`` / ``list_scenarios`` / ``register_scenario``),
* :func:`~repro.scenarios.runner.run_scenario` — the matrix runner
  behind ``repro scenario run``,
* :mod:`~repro.scenarios.golden` — the golden-run regression suite
  behind ``repro golden``.
"""

from repro.scenarios.spec import ScenarioSpec, WorkloadDef
from repro.scenarios.registry import (
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.scenarios.runner import ScenarioResult, run_scenario

__all__ = [
    "ScenarioSpec",
    "WorkloadDef",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "ScenarioResult",
    "run_scenario",
]
