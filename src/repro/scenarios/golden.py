"""Golden-run regression suite (``repro golden``).

Pins the canonical end-of-run snapshot digest
(:meth:`repro.sim.stats.Stats.snapshot_digest`) of a few small,
sanitized scenario grids in ``tests/golden/golden.json``.  Any
behavioural change to the simulator, however subtle (one skipped
MP-bit relay, one reordered message, one miscounted cycle), changes at
least one digest and fails the suite; an *intentional* behaviour change
is blessed with ``repro golden --update``.

The file holds one section per entry of :data:`SECTIONS`, each a list
of :class:`~repro.scenarios.spec.ScenarioSpec` run through
:func:`~repro.scenarios.runner.run_scenario`:

* ``digests`` — the tour: four representative STAMP workloads under
  the baseline and PUNO designs (sub-second, so every test run checks
  it),
* ``scheme_digests`` — the tournament grid, one cell per registered
  scheme per tournament workload, so a newly registered scheme shows
  up as EXTRA until pinned (``--tournament``),
* ``scale_digests`` — the smoke cells of the 256/1024-node scenarios,
  the bit-identity contract of computed routing and pooled directory
  storage (``--scale``).

Every section shares one compute / save / load / check path.  Digests
are keyed ``<scenario>/<workload>/<scheme>/s<seed>``.  Pinned runs
always bypass the result store (a replayed result would re-hash the
pinned one and verify nothing) and run with the protocol sanitizer
armed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.analysis.experiments import paper_spec
from repro.sanitize import ENV_FLAG as SANITIZE_FLAG
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.schemes.tournament import tournament_spec

#: Repo-relative location of the pinned digests.
DEFAULT_GOLDEN_PATH = Path("tests") / "golden" / "golden.json"

#: Bumped when the file layout or digest keys change (not when
#: behaviour changes — that is what ``--update`` records).
GOLDEN_FORMAT = 2

#: The scale family, pinned by its smoke cells.
SCALE_SCENARIOS: Tuple[str, ...] = ("paper-256", "paper-1024")


def tour_spec() -> ScenarioSpec:
    """The tour: a corner of the paper's evaluation grid.  Intruder is
    the high-contention member (exercises false aborting + MP
    feedback), kmeans the RMW-heavy one, vacation the mid-contention
    mixed one, genome the near-contention-free control."""
    spec = paper_spec(scale=0.1, schemes=("baseline", "puno"),
                      names=["intruder", "kmeans", "vacation", "genome"])
    return replace(spec, name="golden-tour")


def _tournament_specs() -> List[ScenarioSpec]:
    """The tournament in the tour's envelope (Table II seed)."""
    return [replace(tournament_spec(), overrides=tour_spec().overrides)]


def _scale_specs() -> List[ScenarioSpec]:
    return [get_scenario(name).smoke() for name in SCALE_SCENARIOS]


@dataclass(frozen=True)
class PinnedSection:
    """One section of the golden file: its key, the ``repro golden``
    switch that selects it, and the grids it pins (built on demand, so
    the section tracks the scheme and scenario registries)."""

    key: str
    flag: str
    specs: Callable[[], List[ScenarioSpec]]


SECTIONS: Dict[str, PinnedSection] = {s.key: s for s in (
    PinnedSection("digests", "", lambda: [tour_spec()]),
    PinnedSection("scheme_digests", " --tournament", _tournament_specs),
    PinnedSection("scale_digests", " --scale", _scale_specs),
)}


def section_specs(section: str,
                  scenarios: Tuple[str, ...] = ()) -> List[ScenarioSpec]:
    """The section's grids, optionally only those derived from the
    named scenarios (a smoke variant answers to its parent's name)."""
    specs = SECTIONS[section].specs()
    if not scenarios:
        return specs
    unknown = set(scenarios) - {s.name.removesuffix("-smoke")
                                for s in specs}
    if unknown:
        raise ValueError(f"section {section!r} pins no scenario(s) "
                         f"{sorted(unknown)}")
    return [s for s in specs if s.name.removesuffix("-smoke") in scenarios]


def run_pinned(spec: ScenarioSpec) -> ScenarioResult:
    """One pinned grid: sanitized, uncached, in-process."""
    saved = os.environ.get(SANITIZE_FLAG)
    os.environ[SANITIZE_FLAG] = "1"
    try:
        return run_scenario(spec, cache=False)
    finally:
        if saved is None:
            del os.environ[SANITIZE_FLAG]
        else:
            os.environ[SANITIZE_FLAG] = saved


def pinned_digests(specs: List[ScenarioSpec],
                   verbose: bool = False) -> Dict[str, str]:
    """Run every grid; digests keyed
    ``<scenario>/<workload>/<scheme>/s<seed>``."""
    out: Dict[str, str] = {}
    for spec in specs:
        result = run_pinned(spec)
        for (wl, scheme, seed), r in zip(result.cells, result.results):
            key = f"{spec.name}/{wl}/{scheme}/s{seed}"
            out[key] = r.stats.snapshot_digest()
            if verbose:
                print(f"  {key}: {out[key][:16]}… "
                      f"({r.stats.sanitizer_checks} sanitizer checks)")
    return out


# ---------------------------------------------------------------------
# pinned-file I/O
# ---------------------------------------------------------------------

def _read_doc(path: Path) -> Dict[str, object]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != GOLDEN_FORMAT:
        raise ValueError(
            f"{path}: golden file format {doc.get('format')!r} != "
            f"expected {GOLDEN_FORMAT}; re-pin every section with "
            f"'repro golden [--scale|--tournament] --update'")
    return doc


def load_section(section: str,
                 path: Union[str, Path] = DEFAULT_GOLDEN_PATH
                 ) -> Dict[str, str]:
    """The pinned digests of one section; FileNotFoundError when the
    file was never written, KeyError when the section was never
    pinned."""
    doc = _read_doc(Path(path))
    if section not in doc:
        raise KeyError(f"{path} has no {section} section; pin it with "
                       f"'repro golden{SECTIONS[section].flag} --update'")
    return dict(doc[section])


def save_section(section: str, digests: Dict[str, str],
                 path: Union[str, Path] = DEFAULT_GOLDEN_PATH,
                 scenarios: Tuple[str, ...] = ()) -> Path:
    """Pin one section, preserving every other section.  With
    ``scenarios`` only those grids' cells are replaced."""
    path = Path(path)
    doc: Dict[str, object] = {"format": GOLDEN_FORMAT}
    try:
        doc = _read_doc(path)
    except (FileNotFoundError, ValueError):
        pass  # a new file, or one of an old layout: start afresh
    pinned: Dict[str, str] = {}
    if scenarios and section in doc:
        names = {s.name for s in section_specs(section, scenarios)}
        pinned = {k: v for k, v in doc[section].items()
                  if k.split("/", 1)[0] not in names}
    pinned.update(digests)
    doc[section] = dict(sorted(pinned.items()))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------

@dataclass
class GoldenReport:
    """Outcome of one golden comparison."""

    matched: List[str] = field(default_factory=list)
    mismatched: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    missing: List[str] = field(default_factory=list)  # pinned, not run
    extra: List[str] = field(default_factory=list)  # run, not pinned

    @property
    def ok(self) -> bool:
        return not (self.mismatched or self.missing or self.extra)

    def describe(self) -> str:
        lines = [f"golden: {len(self.matched)} cell(s) match"]
        for cell, (pinned, got) in sorted(self.mismatched.items()):
            lines.append(f"  MISMATCH {cell}: pinned {pinned[:16]}… "
                         f"got {got[:16]}…")
        for cell in self.missing:
            lines.append(f"  MISSING  {cell}: pinned but not produced "
                         f"by the current tour")
        for cell in self.extra:
            lines.append(f"  EXTRA    {cell}: produced but not pinned "
                         f"(re-pin with 'repro golden --update')")
        if not self.ok:
            lines.append("golden suite FAILED — a behavioural change "
                         "reached the protocol; if intentional, bless "
                         "it with 'repro golden --update'")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "matched": sorted(self.matched),
            "mismatched": {k: {"pinned": p, "got": g}
                           for k, (p, g) in self.mismatched.items()},
            "missing": sorted(self.missing),
            "extra": sorted(self.extra),
        }


def compare_digests(pinned: Dict[str, str],
                    current: Dict[str, str]) -> GoldenReport:
    report = GoldenReport()
    for cell, digest in pinned.items():
        if cell not in current:
            report.missing.append(cell)
        elif current[cell] != digest:
            report.mismatched[cell] = (digest, current[cell])
        else:
            report.matched.append(cell)
    report.extra = [c for c in current if c not in pinned]
    return report


def check_section(section: str,
                  path: Union[str, Path] = DEFAULT_GOLDEN_PATH,
                  scenarios: Tuple[str, ...] = (),
                  verbose: bool = False,
                  current: Optional[Dict[str, str]] = None
                  ) -> GoldenReport:
    """Run one section and compare it against its pinned digests.

    ``scenarios`` restricts the run (CI's scale-smoke job checks one
    scale scenario per child, to budget each one's peak RSS); pinned
    cells outside the selection are ignored rather than reported
    missing.  ``current`` lets tests inject
    precomputed (or deliberately mutated) digests instead of re-running
    the grids.
    """
    pinned = load_section(section, path)
    specs = section_specs(section, scenarios)
    if scenarios:
        names = {s.name for s in specs}
        pinned = {k: v for k, v in pinned.items()
                  if k.split("/", 1)[0] in names}
    if current is None:
        current = pinned_digests(specs, verbose)
    return compare_digests(pinned, current)
