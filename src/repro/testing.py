"""Testing utilities for driving protocol components in isolation.

Shipped as part of the package so downstream users can unit-test
protocol extensions the same way the bundled test suite does.  Two
layers:

* :class:`RecordingNetwork` — a network stand-in for choreography
  tests of a single directory or node controller;
* :func:`check_scheme_conformance` — the cross-scheme contract:
  registered schemes through the sanitized paper-16 smoke cells, on
  the pipeline every grid runs (:func:`repro.scenarios.golden.run_pinned`).
  Whatever its policies, a scheme must complete every cell with its
  audits holding: single-owner and directory/sharer agreement,
  memory equal to the committed increments, and no transaction
  outcome lost or doubled (``System.audit_values``).  The check adds
  what a run cannot see of itself: the sanitizer actually checked
  it, something committed, and the run replays bit-identically from
  the same seed.  ``tests/test_scheme_conformance.py`` drives it over
  every registered scheme; downstream plug-ins get the same contract
  by calling it with their own scheme name.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.network.message import Message
from repro.sim.engine import Simulator
from repro.sim.stats import Stats


class RecordingNetwork:
    """Network stand-in that records sends instead of delivering.

    Drives a :class:`~repro.coherence.directory.DirectoryController` or
    :class:`~repro.htm.node.NodeController` in isolation: the test
    inspects ``sent`` and feeds responses back by hand, so it can
    assert on the exact message choreography of each protocol flow.
    """

    def __init__(self, sim: Simulator, stats: Stats):
        self.sim = sim
        self.stats = stats
        self.sent: List[Message] = []

    def send(self, msg: Message, extra_delay: int = 0) -> None:
        # same int-indexed accumulation as the real Network
        self.stats._msg_counts[msg.mtype] += 1
        self.sent.append(msg)

    def pop(self, mtype=None) -> Message:
        """Remove and return the first sent message (of a type)."""
        for i, m in enumerate(self.sent):
            if mtype is None or m.mtype is mtype:
                return self.sent.pop(i)
        raise AssertionError(f"no sent message of type {mtype}; "
                             f"have {self.sent}")

    def of_type(self, mtype) -> List[Message]:
        return [m for m in self.sent if m.mtype is mtype]

    def clear(self) -> None:
        self.sent.clear()


def check_scheme_conformance(schemes: Optional[Sequence[str]] = None):
    """Run the paper-16 smoke workloads under ``schemes`` (default:
    every registered scheme) and return the grid's
    :class:`~repro.scenarios.runner.ScenarioResult`.

    The cells run sanitized, uncached and in-process, and
    ``System.run`` audits each one, so a cell that deadlocks or breaks
    an audit raises the executor's
    :class:`~repro.analysis.parallel.SweepExecutionError` naming it.
    Raises :class:`AssertionError` listing every cell that performed
    no sanitizer check or no commit, and every cell that replays to a
    different snapshot digest (entropy drawn outside the seeded RNG
    streams).
    """
    from repro.scenarios.golden import run_pinned
    from repro.scenarios.registry import get_scenario
    from repro.schemes import scheme_names
    spec = replace(get_scenario("paper-16").smoke(),
                   schemes=tuple(schemes or scheme_names()))
    result = run_pinned(spec)
    failures: List[str] = []
    for (wl, scheme, _), r in zip(result.cells, result.results):
        if r.stats.sanitizer_checks <= 0:
            failures.append(f"{wl}/{scheme}: sanitizer armed but "
                            f"performed no checks")
        if r.stats.tx_committed <= 0:
            failures.append(f"{wl}/{scheme}: run completed without "
                            f"any commit")
    # the whole grid replays: at this scale the first workload (bayes)
    # never aborts, so a contention manager's RNG would go undrawn
    digests = result.snapshot_digests()
    for cell, digest in run_pinned(spec).snapshot_digests().items():
        if digest != digests[cell]:
            failures.append(f"{cell}: nondeterministic replay "
                            f"{digests[cell][:16]}… vs {digest[:16]}…")
    if failures:
        raise AssertionError("scheme conformance failed:\n"
                             + "\n".join(f"  - {f}" for f in failures))
    return result
