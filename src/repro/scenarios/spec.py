"""The declarative scenario specification.

A :class:`ScenarioSpec` is a frozen, JSON-round-trippable description
of one experiment matrix:

* ``nodes`` — mesh size; any count works (the most-square 2D shape is
  derived, and the P-Buffer is sized at one entry per node),
* ``workloads`` — a tuple of :class:`WorkloadDef`, each naming a STAMP
  analogue, the synthetic microbenchmark, or a contention family,
* ``schemes`` — the contention-management designs to compare,
* ``scale`` / ``seeds`` — the instance-count multiplier and the seed
  sweep axis (every seed perturbs both the workload generators and the
  simulator-side RNG streams),
* ``overrides`` — declarative config deltas per section
  (``htm``/``puno``/``network``/``cache``/``system``),
* ``faults`` — an optional :func:`repro.faults.parse_fault_spec`
  string; fault cells run with the engine watchdog armed.

``smoke()`` derives the scaled-down variant CI and the determinism
audit run: same mesh, same schemes, same overrides — only fewer
instances, a single seed, and optionally fewer workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.parallel import WorkloadSpec
from repro.schemes import scheme_names
from repro.sim.config import (
    OVERRIDE_SECTIONS,
    SystemConfig,
    mesh_shape,
    override_config,
    scaled_config,
)


@dataclass(frozen=True)
class WorkloadDef:
    """One workload row of a scenario matrix.

    ``kind`` is ``"stamp"``, ``"synthetic"`` or a family name from
    :data:`repro.workloads.families.FAMILIES`; ``name`` selects the
    generator for stamp workloads (defaults to ``label``); ``params``
    carries generator keyword arguments.
    """

    label: str
    kind: str = "stamp"
    name: str = ""
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def generator(self) -> str:
        return self.name or self.label

    def to_spec(self, nodes: int, scale: float, seed: int) -> WorkloadSpec:
        """The picklable rebuild recipe for one (scale, seed) cell."""
        if self.kind == "stamp":
            return WorkloadSpec(self.generator, kind="stamp",
                                num_nodes=nodes, scale=scale, seed=seed)
        params = tuple(sorted(self.params.items()))
        if self.kind == "synthetic":
            return WorkloadSpec(self.label, kind="synthetic",
                                num_nodes=nodes, seed=seed, params=params)
        return WorkloadSpec(self.label, kind=self.kind, num_nodes=nodes,
                            scale=scale, seed=seed, params=params)

    def problems(self) -> List[str]:
        from repro.workloads.families import FAMILIES
        from repro.workloads.stamp import STAMP_WORKLOADS
        out: List[str] = []
        if not self.label:
            out.append("workload with empty label")
        if self.kind == "stamp":
            if self.generator not in STAMP_WORKLOADS:
                out.append(f"workload {self.label!r}: unknown STAMP "
                           f"generator {self.generator!r}")
        elif self.kind != "synthetic" and self.kind not in FAMILIES:
            out.append(f"workload {self.label!r}: unknown kind "
                       f"{self.kind!r} (stamp, synthetic, or one of "
                       f"{sorted(FAMILIES)})")
        return out

    def to_dict(self) -> Dict[str, object]:
        return {"label": self.label, "kind": self.kind,
                "name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "WorkloadDef":
        return cls(label=d["label"], kind=d.get("kind", "stamp"),
                   name=d.get("name", ""),
                   params=dict(d.get("params", {})))


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, complete experiment matrix (see module docstring)."""

    name: str
    description: str = ""
    nodes: int = 16
    workloads: Tuple[WorkloadDef, ...] = ()
    schemes: Tuple[str, ...] = ("baseline", "puno")
    scale: float = 1.0
    seeds: Tuple[int, ...] = (0,)
    overrides: Dict[str, Dict[str, object]] = field(default_factory=dict)
    faults: str = ""
    max_cycles: int = 200_000_000
    #: ``smoke()`` multiplies ``scale`` by this.
    smoke_scale: float = 0.25
    #: ``smoke()`` keeps only the first N workloads (0 = all).
    smoke_workloads: int = 0
    tags: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        """Every problem with this spec (empty = valid)."""
        problems: List[str] = []
        if not self.name:
            problems.append("scenario has no name")
        if self.nodes <= 0:
            problems.append(f"nodes must be positive, got {self.nodes}")
        if not self.workloads:
            problems.append("scenario has no workloads")
        labels = [w.label for w in self.workloads]
        if len(set(labels)) != len(labels):
            problems.append(f"duplicate workload labels in {labels}")
        for wl in self.workloads:
            problems.extend(wl.problems())
        if not self.schemes:
            problems.append("scenario has no schemes")
        for scheme in self.schemes:
            if scheme not in scheme_names():
                problems.append(f"unknown scheme {scheme!r}; choices: "
                                f"{list(scheme_names())}")
        if self.scale <= 0:
            problems.append(f"scale must be positive, got {self.scale}")
        if not self.seeds:
            problems.append("scenario has an empty seed axis")
        if not 0 < self.smoke_scale <= 1:
            problems.append(f"smoke_scale must be in (0, 1], got "
                            f"{self.smoke_scale}")
        for section in self.overrides:
            if section not in OVERRIDE_SECTIONS:
                problems.append(f"unknown override section {section!r}; "
                                f"choices: {OVERRIDE_SECTIONS}")
        if not problems:
            try:
                self.config(self.seeds[0])
            except (ValueError, TypeError) as exc:
                problems.append(f"config overrides rejected: {exc}")
        if self.faults:
            try:
                self.fault_config()
            except (KeyError, ValueError) as exc:
                problems.append(f"bad fault spec {self.faults!r}: {exc}")
        return problems

    # ------------------------------------------------------------------
    def config(self, seed: int = 0) -> SystemConfig:
        """The SystemConfig every cell of this scenario runs under at
        ``seed``; the cell's scheme decides whether PUNO hardware is
        built (:attr:`repro.schemes.Scheme.needs_puno`)."""
        cfg = scaled_config(self.nodes, seed=seed)
        if self.overrides:
            cfg = override_config(cfg, self.overrides)
        return cfg

    def fault_config(self):
        """The parsed FaultConfig, or None when the scenario is
        fault-free."""
        if not self.faults:
            return None
        from repro.faults import parse_fault_spec
        cfg = parse_fault_spec(self.faults)
        cfg.validate()
        return cfg if cfg.active() else None

    # ------------------------------------------------------------------
    def smoke(self) -> "ScenarioSpec":
        """The scaled-down variant: same mesh/schemes/overrides, fewer
        instances, one seed, optionally fewer workloads."""
        workloads = self.workloads
        if self.smoke_workloads > 0:
            workloads = workloads[:self.smoke_workloads]
        return replace(
            self,
            name=f"{self.name}-smoke",
            workloads=workloads,
            scale=self.scale * self.smoke_scale,
            seeds=self.seeds[:1],
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "nodes": self.nodes,
            "workloads": [w.to_dict() for w in self.workloads],
            "schemes": list(self.schemes),
            "scale": self.scale,
            "seeds": list(self.seeds),
            "overrides": {k: dict(v) for k, v in self.overrides.items()},
            "faults": self.faults,
            "max_cycles": self.max_cycles,
            "smoke_scale": self.smoke_scale,
            "smoke_workloads": self.smoke_workloads,
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ScenarioSpec":
        return cls(
            name=d["name"],
            description=d.get("description", ""),
            nodes=d.get("nodes", 16),
            workloads=tuple(WorkloadDef.from_dict(w)
                            for w in d.get("workloads", [])),
            schemes=tuple(d.get("schemes", ("baseline", "puno"))),
            scale=d.get("scale", 1.0),
            seeds=tuple(d.get("seeds", (0,))),
            overrides={k: dict(v)
                       for k, v in d.get("overrides", {}).items()},
            faults=d.get("faults", ""),
            max_cycles=d.get("max_cycles", 200_000_000),
            smoke_scale=d.get("smoke_scale", 0.25),
            smoke_workloads=d.get("smoke_workloads", 0),
            tags=tuple(d.get("tags", ())),
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-paragraph human summary for ``repro scenario list``."""
        w, h = mesh_shape(self.nodes)
        parts = [
            f"{self.nodes} nodes ({w}x{h} mesh)",
            f"{len(self.workloads)} workload(s): "
            + ", ".join(wl.label for wl in self.workloads),
            f"schemes: {', '.join(self.schemes)}",
            f"scale {self.scale}, seeds {list(self.seeds)}",
        ]
        if self.overrides:
            parts.append(f"overrides: {self.overrides}")
        if self.faults:
            parts.append(f"faults: {self.faults}")
        return "; ".join(parts)

    @property
    def num_cells(self) -> int:
        return len(self.workloads) * len(self.schemes) * len(self.seeds)
