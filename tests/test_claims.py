"""The paper's claims table (``repro.analysis.claims``): every row
holds at bench scale, doctored Stats fail exactly the rows that read
them, and the rows and the EXPERIMENTS.md summary table match."""

from __future__ import annotations

import copy
from pathlib import Path

import pytest

from repro.analysis import claims, experiments
from repro.analysis.claims import CLAIMS
from repro.analysis.experiments import FIGURES, GROUPS, VARIANTS
from repro.analysis.parallel import SweepExecutionError, TaskResult
from repro.schemes import scheme_names
from repro.sim.stats import Stats

SCALE, SEED = 0.4, 0
EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def stats(claims_store):
    """Stats of every cell the table runs, simulated once per session
    into the shared store."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_NO_CACHE", raising=False)
        mp.setenv("REPRO_CACHE_DIR", str(claims_store))
        results = claims.run_cells(claims.cells(c.figure for c in CLAIMS),
                                   SCALE, SEED)
    assert not [c for c, r in results.items() if r.stall is not None]
    return {c: r.stats for c, r in results.items()}


def _failing(verdicts):
    return {str(v.claim) for v in verdicts if v.status == "FAILS"}


def test_every_claim_holds_over_the_47_cells_of_its_figures(stats):
    """The 8 x 4 grid plus 15 ablation and extension cells (12 PUNO
    variants, ats, ats+puno, lazy); default-config variants and the
    eager cells are grid cells."""
    verdicts = claims.judge(CLAIMS, stats)
    assert [str(v.claim) for v in verdicts if v.status != "holds"] == []
    assert claims.exit_code(verdicts) == 0
    assert len(stats) == 47
    assert sum(1 for _, s in stats if s in VARIANTS) == 12


def test_every_row_reads_only_its_figures_cells():
    for claim in CLAIMS:
        assert set(claim.cells()) <= set(claims.cells([claim.figure])), str(claim)
    assert {s for s, _ in VARIANTS.values()} <= set(scheme_names())


# ---------------------------------------------------------------------
# mutation meta-tests: doctored Stats fail exactly the rows reading them
# ---------------------------------------------------------------------

def _rows_reading(cells):
    return {str(c) for c in CLAIMS if set(c.cells()) & set(cells)}


def test_swapping_hc_puno_and_baseline_fails_the_rows_reading_them(stats):
    doctored = dict(stats)
    swapped = []
    for w in GROUPS["HC"]:
        doctored[(w, "puno")] = stats[(w, "baseline")]
        doctored[(w, "baseline")] = stats[(w, "puno")]
        swapped += [(w, "puno"), (w, "baseline")]
    verdicts = claims.judge(CLAIMS, doctored)
    failing = _failing(verdicts)
    assert failing <= _rows_reading(swapped)
    assert failing == {
        "mean aborts x HC/puno < 1",
        "mean aborts x HC/rmw > mean aborts x HC/puno",
        "mean traffic x HC/puno < 1",
        "geomean gd_ratio x HC/puno > 1",
        "aborts bayes/unicast-only < aborts bayes/baseline",
        "aborts bayes/puno < aborts bayes/baseline",
        "unicasts bayes/threshold=2 <= unicasts bayes/puno",
        "false-aborting GETX bayes/puno < false-aborting GETX "
        "bayes/baseline",
    }
    # baseline stats never unicast: the accuracy rows' guard is unmet
    assert {v.claim.figure for v in verdicts
            if v.status == "vacuous"} == {"A4/A5"}
    assert claims.exit_code(verdicts) == 1


def test_one_lazy_false_abort_fails_only_the_lazy_row(stats):
    lazy = copy.copy(stats[("bayes", "lazy")])
    lazy.tx_getx_false_aborting = 1
    verdicts = claims.judge(CLAIMS, {**stats, ("bayes", "lazy"): lazy})
    assert _failing(verdicts) == {"false-aborting GETX bayes/lazy == 0"}
    assert claims.exit_code(verdicts) == 1


@pytest.mark.parametrize("outcome", ["raises", "stalls"])
def test_a_cell_that_raises_or_stalls_exits_2(outcome, monkeypatch):
    def run(tasks, jobs):
        if outcome == "raises":
            raise SweepExecutionError("sweep cell 'bayes'/'lazy' raised")
        return [TaskResult(t.workload, t.scheme, Stats(16), 0.0, False,
                           stall=object()) for t in tasks]
    monkeypatch.setattr(experiments, "run_tasks_resilient", run)
    result = claims.check(SCALE, SEED)
    assert result.data["exit_code"] == 2
    assert result.text.startswith("claims not judged")


# ---------------------------------------------------------------------
# drift: the rows and the EXPERIMENTS.md summary table back each other
# ---------------------------------------------------------------------

def test_every_row_backs_a_summary_row_and_every_summary_row_is_backed():
    summary = EXPERIMENTS_MD.read_text().split(
        "## Summary of reproduction quality", 1)[1].split("\n## ", 1)[0]
    figures = {line.split("|")[1].split(" — ")[0].strip()
               for line in summary.splitlines()
               if line.startswith("| ") and not line.startswith("| Result")}
    claimed = {c.figure for c in CLAIMS}
    assert claimed <= figures, claimed - figures
    assert figures <= claimed, figures - claimed
    assert set(FIGURES) == figures
