"""The scheme tournament (``repro tournament``).

Sweeps every registered scheme head-to-head against PUNO over a
16-node scenario matrix: ``repro tournament`` runs
:func:`tournament_spec` through
:func:`~repro.scenarios.runner.run_scenario` like any other scenario
(process fan-out, the result store that also resumes an interrupted
run).  PUNO is the first scheme of the spec, so the rendered table
normalizes every contender against it.

The tournament grid doubles as the golden ``scheme_digests`` section:
``repro golden --tournament`` reruns each cell sanitized and compares
canonical snapshot digests against the pinned values (see
:mod:`repro.scenarios.golden`), so every scheme — including downstream
plug-ins once pinned — carries its own bit-identity contract.
"""

from __future__ import annotations

from repro.schemes.registry import scheme_names

# NOTE: repro.scenarios is imported lazily inside tournament_spec — the
# scenarios package registers the tournament scenario from this module
# at import time, so a module-level import here would be circular.

#: The tournament envelope: the golden tour's high-contention member
#: (intruder — arbitration and backoff policy actually bite) and its
#: mixed mid-contention member (vacation), at the golden tour's mesh
#: and instance scale so cells stay sub-second.
TOURNAMENT_WORKLOADS = ("intruder", "vacation")
TOURNAMENT_NODES = 16
TOURNAMENT_SCALE = 0.1
TOURNAMENT_SEED = 0
#: Every contender is normalized against this scheme.
TOURNAMENT_BASELINE = "puno"


def tournament_schemes() -> tuple:
    """All registered schemes, PUNO first (the normalization base)."""
    names = [n for n in scheme_names() if n != TOURNAMENT_BASELINE]
    return (TOURNAMENT_BASELINE, *names)


def tournament_spec(nodes: int = TOURNAMENT_NODES,
                    scale: float = TOURNAMENT_SCALE,
                    schemes: tuple = (),
                    workloads: tuple = TOURNAMENT_WORKLOADS,
                    seeds: tuple = (TOURNAMENT_SEED,)):
    """The tournament as a frozen ScenarioSpec (registered as
    ``tournament-16`` for the default envelope)."""
    from repro.scenarios.spec import ScenarioSpec, WorkloadDef
    return ScenarioSpec(
        name=f"tournament-{nodes}",
        description="Every registered scheme head-to-head against "
                    "PUNO: directory-forward x contention-manager x "
                    "version-management policies on one matrix, "
                    "digests pinned per scheme in the golden "
                    "scheme_digests section.",
        nodes=nodes,
        workloads=tuple(WorkloadDef(w) for w in workloads),
        schemes=tuple(schemes) if schemes else tournament_schemes(),
        scale=scale,
        seeds=tuple(seeds),
        smoke_scale=0.5,
        smoke_workloads=1,
        tags=("tournament", "schemes"),
    )

