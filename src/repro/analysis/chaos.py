"""Chaos tour verdict: did every faulted cell commit or stall explainably?

``repro chaos`` and the CI chaos job run a tour of STAMP workloads as
an ordinary scenario grid whose ``faults`` field is the fault spec:
each cell runs through the sweep executor with the engine watchdog
armed, and comes back as a :class:`~repro.analysis.parallel.TaskResult`
that is either

* ``committed`` — the workload ran to completion (and, when the fault
  mix is loss-free, passed the coherence/value audits); or
* ``stalled`` — the watchdog raised a structured
  :class:`~repro.sim.watchdog.StallReport`.  A stall is *explained*
  when the injected faults can account for it (messages were dropped
  or reordered, nodes were stalled, or delays blew the cycle budget);
  an unexplained stall is a protocol bug and fails the tour.

A sanitizer violation or any other exception is not an outcome: it
fails the sweep with :class:`~repro.analysis.parallel.SweepExecutionError`
naming the cell.  The tour passes (``ChaosReport.ok``) iff every cell
committed or stalled in an explained way — exactly the CI gate.  It
runs with the result store off: a replayed verdict verifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.parallel import TaskResult
from repro.workloads.stamp import STAMP_WORKLOADS

#: The default tour: every STAMP analogue, alphabetical.
TOUR = tuple(sorted(STAMP_WORKLOADS))


@dataclass
class ChaosOutcome:
    """One (workload, scheme) cell of a chaos tour."""

    result: TaskResult

    @property
    def status(self) -> str:
        return "committed" if self.result.stall is None else "stalled"

    @property
    def explained(self) -> bool:
        """Can the injected faults account for a stall?"""
        stall, f = self.result.stall, self.result.faults
        if stall is None:
            return False
        if f.get("dropped") or f.get("reordered") or f.get("stalls_injected"):
            return True
        return stall.kind == "max-cycles" and bool(f.get("delayed"))

    @property
    def ok(self) -> bool:
        return self.result.stall is None or self.explained

    def row(self) -> Dict[str, object]:
        r = self.result
        outcome = self.status
        if r.stall is not None:
            tag = "explained" if self.explained else "UNEXPLAINED"
            outcome = f"stalled/{r.stall.kind} ({tag})"
        return {
            "workload": r.workload,
            "outcome": outcome,
            "commits": r.stats.tx_committed,
            "aborts": r.stats.tx_aborted,
            "dropped": r.faults.get("dropped", 0),
            "dup": r.faults.get("duplicated", 0),
            "delayed": r.faults.get("delayed", 0),
            "stale": r.stats.stale_responses_dropped,
            "san checks": r.stats.sanitizer_checks,
        }

    def to_dict(self) -> Dict[str, object]:
        r = self.result
        out = {
            "workload": r.workload,
            "scheme": r.scheme,
            "status": self.status,
            "ok": self.ok,
            "commits": r.stats.tx_committed,
            "aborts": r.stats.tx_aborted,
            "cycles": r.end_cycle,
            "stale_responses_dropped": r.stats.stale_responses_dropped,
            "retry_cap_exhausted": r.stats.retry_cap_exhausted,
            "sanitizer_checks": r.stats.sanitizer_checks,
            "faults": dict(r.faults),
            # a failing cell raises instead; the key keeps the schema
            "error": "",
        }
        if r.stall is not None:
            out["stall"] = r.stall.to_dict()
        return out


@dataclass
class ChaosReport:
    """All outcomes of one tour plus the verdict."""

    outcomes: List[ChaosOutcome] = field(default_factory=list)

    @classmethod
    def from_results(cls, results: List[TaskResult]) -> "ChaosReport":
        return cls([ChaosOutcome(r) for r in results])

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def render_text(self) -> str:
        from repro.analysis.report import render_table
        schemes = dict.fromkeys(o.result.scheme for o in self.outcomes)
        lines = ["\n\n".join(
            render_table([o.row() for o in self.outcomes
                          if o.result.scheme == scheme],
                         title=f"chaos tour under {scheme}")
            for scheme in schemes)]
        problems = [o.result for o in self.outcomes if not o.ok]
        for r in problems:
            lines.append(f"\nFAIL {r.workload}/{r.scheme} [stalled]: "
                         f"{r.stall.describe()}")
        verdict = "PASS" if self.ok else f"FAIL ({len(problems)} cell(s))"
        lines.append(f"\nchaos verdict: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {"ok": self.ok,
                "outcomes": [o.to_dict() for o in self.outcomes]}
