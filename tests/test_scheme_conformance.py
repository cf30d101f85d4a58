"""Cross-scheme conformance suite + scheme-golden teeth.

Every registered scheme — whatever its directory-forward, contention
and version-management policies — must obey the shared protocol
contract.  One module-scoped grid runs each scheme through the
sanitized paper-16 smoke workloads
(:func:`repro.testing.check_scheme_conformance`), and each matrix case
reads its own cell; the mutation meta-tests then seed one deliberate
bug per new scheme and prove (a) the conformance check and (b) the
pinned ``scheme_digests`` golden section each catch it, mirroring the
MP-bit relay meta-test of the main golden tour.  The file-level checks
of the ``scheme_digests`` section run with every other section in
``test_golden.py``.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.parallel import SweepExecutionError
from repro.scenarios.golden import (
    check_section,
    compare_digests,
    load_section,
    pinned_digests,
    section_specs,
)
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import WorkloadDef
from repro.schemes import (
    AdaptiveRequeue,
    PhasePriorityArbiter,
    scheme_names,
)
from repro.testing import check_scheme_conformance

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden.json"

WORKLOADS = tuple(w.label for w in get_scenario("paper-16").smoke().workloads)
MATRIX = [(s, w) for s in scheme_names() for w in WORKLOADS]


# ---------------------------------------------------------------------
# the conformance matrix
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid():
    """Every registered scheme x the smoke workloads, checked once."""
    return check_scheme_conformance()


def test_matrix_covers_every_registered_scheme():
    assert {s for s, _ in MATRIX} == set(scheme_names())
    assert set(WORKLOADS) == {"bayes", "genome", "intruder"}


@pytest.mark.parametrize("scheme,workload", MATRIX,
                         ids=[f"{s}-{w}" for s, w in MATRIX])
def test_scheme_conforms(grid, scheme, workload):
    stats = grid.stats(workload, scheme)
    assert stats.sanitizer_checks > 0
    assert stats.tx_committed > 0


def test_conformance_matrix_helper_runs_everything(grid):
    assert grid.cells == [(w, s, 0) for w in WORKLOADS
                          for s in scheme_names()]


def test_conformance_exercises_real_contention(grid):
    """A conformance pass over a contention-free matrix would prove
    nothing about arbitration/backoff policy — intruder cells must
    abort."""
    assert grid.stats("intruder", "baseline").tx_aborted > 0


# ---------------------------------------------------------------------
# scheme_digests golden section
# ---------------------------------------------------------------------

def _tournament_digests(scheme, workloads=("intruder", "vacation")):
    """Digests of one scheme's pinned tournament cells, re-run."""
    (spec,) = section_specs("scheme_digests")
    spec = replace(spec, schemes=(scheme,),
                   workloads=tuple(WorkloadDef(w) for w in workloads))
    return pinned_digests([spec])


def test_new_schemes_have_pinned_tournament_digests():
    pinned = load_section("scheme_digests", GOLDEN_PATH)
    for scheme in ("phase-priority", "adaptive-requeue", "lazy"):
        for wl in ("intruder", "vacation"):
            assert f"tournament-16/{wl}/{scheme}/s0" in pinned


def test_tournament_grid_matches_pinned():
    """The regression check itself, over every registered scheme."""
    report = check_section("scheme_digests", GOLDEN_PATH)
    assert report.ok, "\n" + report.describe()
    (spec,) = section_specs("scheme_digests")
    assert len(report.matched) == spec.num_cells


def test_scheme_section_agrees_with_main_tour():
    """baseline/puno tournament cells share the main tour's envelope,
    so their digests must be literally the same — a cross-section
    consistency check that both sections pin the same behaviour."""
    tour = load_section("digests", GOLDEN_PATH)
    schemes_section = load_section("scheme_digests", GOLDEN_PATH)
    for wl in ("intruder", "vacation"):
        for scheme in ("baseline", "puno"):
            assert schemes_section[f"tournament-16/{wl}/{scheme}/s0"] == \
                tour[f"golden-tour/{wl}/{scheme}/s0"]


# ---------------------------------------------------------------------
# mutation meta-tests: one seeded bug per new scheme, caught twice
# ---------------------------------------------------------------------

def test_conformance_catches_phase_priority_dropping_a_forward(
        monkeypatch):
    """Seeded bug: the arbiter silently discards the lowest-priority
    waiter whenever it reorders — a dropped deferred forward.  The
    victim's request is never serviced, its node never finishes, and
    the conformance run must fail with the cell named, not pass.
    """
    real_select = PhasePriorityArbiter.select

    def dropping_select(self, waitq, now):
        if len(waitq) >= 2:
            # identify the worst waiter and drop it on the floor
            worst = max(range(len(waitq)),
                        key=lambda i: self.priority_key(
                            waitq[i][0], waitq[i][1], i))
            del waitq[worst]
        return real_select(self, waitq, now)

    monkeypatch.setattr(PhasePriorityArbiter, "select", dropping_select)
    with pytest.raises(SweepExecutionError, match="'phase-priority'"):
        check_scheme_conformance(("phase-priority",))


def test_golden_catches_phase_priority_inversion(monkeypatch):
    """Seeded bug: arbitration inverted — the arbiter picks the *worst*
    key (youngest-first, committers last).  Every request is still
    serviced, the run completes, all audits pass — only the schedule
    changes, which is exactly what the pinned tournament digests exist
    to catch."""

    def inverted_select(self, waitq, now):
        if len(waitq) == 1:
            return waitq.popleft()
        self.selections += 1
        worst = max(range(len(waitq)),
                    key=lambda i: self.priority_key(
                        waitq[i][0], waitq[i][1], i))
        item = waitq[worst]
        del waitq[worst]
        return item

    monkeypatch.setattr(PhasePriorityArbiter, "select", inverted_select)
    pinned = load_section("scheme_digests", GOLDEN_PATH)
    current = {**pinned, **_tournament_digests("phase-priority")}
    report = compare_digests(pinned, current)
    assert not report.ok, (
        "scheme golden failed to detect inverted arbitration — the "
        "phase-priority digests do not cover the drain order")
    assert "tournament-16/intruder/phase-priority/s0" in report.mismatched
    # the mutation is surgical: every other scheme's cell still matches
    assert all("phase-priority" in cell for cell in report.mismatched)


def test_conformance_catches_adaptive_requeue_unseeded_rng(monkeypatch):
    """Seeded bug: the CM ignores its seeded stream and draws from an
    unseeded random.Random() — the exact failure the sim-rng lint rule
    and the replay invariant exist to stop.  Two runs from the same
    seed now schedule requeues differently, so the deterministic-replay
    check must fail."""
    real_init = AdaptiveRequeue.__init__

    def unseeded_init(self, config, stats, rng=None):
        real_init(self, config, stats, rng)
        self.rng = random.Random()  # no seed: OS entropy

    monkeypatch.setattr(AdaptiveRequeue, "__init__", unseeded_init)
    with pytest.raises(AssertionError, match="nondeterministic replay"):
        check_scheme_conformance(("adaptive-requeue",))


def test_golden_catches_adaptive_requeue_unseeded_rng(monkeypatch):
    real_init = AdaptiveRequeue.__init__

    def unseeded_init(self, config, stats, rng=None):
        real_init(self, config, stats, rng)
        self.rng = random.Random()

    monkeypatch.setattr(AdaptiveRequeue, "__init__", unseeded_init)
    pinned = load_section("scheme_digests", GOLDEN_PATH)
    current = {**pinned,
               **_tournament_digests("adaptive-requeue", ("intruder",))}
    report = compare_digests(pinned, current)
    assert not report.ok
    assert set(report.mismatched) == {
        "tournament-16/intruder/adaptive-requeue/s0"}
