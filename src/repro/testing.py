"""Testing utilities for driving protocol components in isolation.

Shipped as part of the package so downstream users can unit-test
protocol extensions the same way the bundled test suite does.  Two
layers:

* :class:`RecordingNetwork` — a network stand-in for choreography
  tests of a single directory or node controller;
* the **cross-scheme conformance harness**
  (:func:`run_scheme_conformance` / :func:`conformance_matrix`) — runs
  a registered scheme through sanitized paper-16 smoke cells and
  checks the invariants every scheme must share, whatever its
  policies: the run completes, the sanitizer actually checked it,
  single-owner and directory/sharer agreement hold (coherence audit),
  memory equals committed increments (value audit), no transaction
  outcome is lost (attempts = commits + aborts, every instance
  commits exactly once), and the whole run replays bit-identically
  from the same seed.  ``tests/test_scheme_conformance.py`` drives it
  over every registered scheme; downstream plug-ins get the same
  contract by calling it with their own scheme name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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


# =====================================================================
# cross-scheme conformance harness
# =====================================================================

#: The conformance envelope mirrors the paper-16 smoke matrix: same
#: mesh, same instance scale; workloads default to the smoke subset of
#: the registered ``paper-16`` scenario.
CONFORMANCE_NODES = 16
CONFORMANCE_SCALE = 0.1
CONFORMANCE_SEED = 0
CONFORMANCE_MAX_CYCLES = 200_000_000


@dataclass
class ConformanceReport:
    """Outcome of one scheme x workload conformance cell."""

    scheme: str
    workload: str
    nodes: int
    seed: int
    digest: str = ""
    replay_digest: str = ""
    sanitizer_checks: int = 0
    commits: int = 0
    aborts: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        head = (f"{self.scheme}/{self.workload}: "
                f"{self.commits} commits, {self.aborts} aborts, "
                f"{self.sanitizer_checks} sanitizer checks")
        if self.ok:
            return f"{head} — CONFORMS"
        return "\n".join([f"{head} — FAILED"]
                         + [f"  - {f}" for f in self.failures])


def build_conformance_system(scheme: str, workload: str,
                             nodes: int = CONFORMANCE_NODES,
                             scale: float = CONFORMANCE_SCALE,
                             seed: int = CONFORMANCE_SEED):
    """One sanitized, watchdogged System for a conformance cell.

    The cell config is exactly what scenario/tournament runs build.
    """
    from repro.sim.config import scaled_config
    from repro.system import System
    from repro.workloads.stamp import make_stamp_workload
    cfg = scaled_config(nodes, seed=seed + 1)
    wl = make_stamp_workload(workload, num_nodes=nodes, scale=scale,
                             seed=seed)
    return System(cfg, wl, scheme, sanitize=True, watchdog=True)


def _check_outcome_conservation(system, report: ConformanceReport) -> None:
    """No lost aborts / no double commits, per node.

    Every attempt ends in exactly one outcome (attempts = commits +
    aborts) and every TxInstance in the node's program commits exactly
    once — a scheme that drops a waiter, loses an abort, or replays a
    committed instance breaks one of these whatever else it changes.
    """
    from repro.workloads.base import TxInstance
    stats = system.stats
    for n in range(system.config.num_nodes):
        node = stats.nodes[n]
        if node.tx_attempts != node.tx_committed + node.tx_aborted:
            report.failures.append(
                f"node {n}: lost outcome — {node.tx_attempts} attempts "
                f"!= {node.tx_committed} commits + {node.tx_aborted} "
                f"aborts")
        expected = sum(1 for item in system.workload.programs[n]
                       if isinstance(item, TxInstance))
        if node.tx_committed != expected:
            report.failures.append(
                f"node {n}: {node.tx_committed} commits for "
                f"{expected} program instance(s)")


def run_scheme_conformance(scheme: str, workload: str = "intruder",
                           nodes: int = CONFORMANCE_NODES,
                           scale: float = CONFORMANCE_SCALE,
                           seed: int = CONFORMANCE_SEED,
                           max_cycles: int = CONFORMANCE_MAX_CYCLES,
                           replay: bool = True) -> ConformanceReport:
    """Run one scheme through one sanitized cell and check the shared
    protocol invariants (see module docstring).

    ``replay=True`` runs the cell twice from scratch and requires
    bit-identical canonical snapshot digests — the determinism
    contract that catches any scheme drawing entropy outside its
    seeded RNG stream.
    """
    from repro.sim.watchdog import StallError
    report = ConformanceReport(scheme=scheme, workload=workload,
                               nodes=nodes, seed=seed)
    system = build_conformance_system(scheme, workload, nodes, scale,
                                      seed)
    try:
        # run() already audits coherence (single-owner + dir/sharer
        # agreement) and values (atomicity) on completion; the
        # sanitizer checks its nine invariants at event boundaries.
        system.run(max_cycles=max_cycles)
    except StallError as exc:
        report.failures.append(f"stalled: {exc.report.kind} at cycle "
                               f"{exc.report.cycle}: {exc.report.detail}")
        return report
    except (AssertionError, RuntimeError) as exc:
        report.failures.append(f"{type(exc).__name__}: {exc}")
        return report
    stats = system.stats
    report.digest = stats.snapshot_digest()
    report.sanitizer_checks = stats.sanitizer_checks
    report.commits = stats.tx_committed
    report.aborts = stats.tx_aborted
    if stats.sanitizer_checks <= 0:
        report.failures.append("sanitizer armed but performed no checks")
    if stats.tx_committed <= 0:
        report.failures.append("run completed without any commit")
    _check_outcome_conservation(system, report)
    if replay:
        replay_system = build_conformance_system(scheme, workload,
                                                 nodes, scale, seed)
        try:
            replay_system.run(max_cycles=max_cycles)
        except (AssertionError, RuntimeError) as exc:
            report.failures.append(
                f"replay failed: {type(exc).__name__}: {exc}")
            return report
        report.replay_digest = replay_system.stats.snapshot_digest()
        if report.replay_digest != report.digest:
            report.failures.append(
                f"nondeterministic replay: {report.digest[:16]}… vs "
                f"{report.replay_digest[:16]}…")
    return report


def conformance_workloads() -> Tuple[str, ...]:
    """The paper-16 smoke workload labels (the conformance matrix's
    workload axis)."""
    from repro.scenarios.registry import get_scenario
    spec = get_scenario("paper-16").smoke()
    return tuple(wl.label for wl in spec.workloads)


def conformance_matrix(schemes: Optional[Tuple[str, ...]] = None,
                       workloads: Optional[Tuple[str, ...]] = None,
                       replay_workload: Optional[str] = None,
                       ) -> Dict[Tuple[str, str], ConformanceReport]:
    """Run every (scheme, workload) conformance cell.

    Defaults to every registered scheme over the paper-16 smoke
    workloads.  The replay (determinism) check runs on one workload
    per scheme — the first, or ``replay_workload`` — since a second
    full matrix would double the cost for no extra invariant.
    """
    from repro.schemes import scheme_names
    if schemes is None:
        schemes = scheme_names()
    if workloads is None:
        workloads = conformance_workloads()
    if replay_workload is None:
        replay_workload = workloads[0]
    out: Dict[Tuple[str, str], ConformanceReport] = {}
    for scheme in schemes:
        for workload in workloads:
            out[(scheme, workload)] = run_scheme_conformance(
                scheme, workload, replay=(workload == replay_workload))
    return out
