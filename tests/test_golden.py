"""Golden-run regression suite.

``tests/golden/golden.json`` pins the canonical snapshot digests of the
sections in :data:`repro.scenarios.golden.SECTIONS`: the sanitized
STAMP tour (four workloads x {baseline, puno}), the scheme tournament
and the 256/1024-node scale smoke cells.  A digest covers *every*
counter in :meth:`repro.sim.stats.Stats.snapshot`, so any behavioural
drift in the protocol — one skipped message, one miscounted cycle —
flips at least one digest and fails this suite.

Intentional behaviour changes are blessed with ``repro golden
[--scale|--tournament] --update`` (and the re-pin should be called out
in the commit).

The file-level tests are parametrized over every pinned section; the
tour is re-run here (sub-second), the tournament in
``test_scheme_conformance.py`` and the cheapest scale cell in
``test_golden_scale.py``.  The meta-test at the bottom proves the suite
has teeth: it flips one protocol line (skip the MP-bit relay on
UNBLOCK, the PUNO feedback path) and asserts the comparison catches it.
"""

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.htm.node import Mshr
from repro.scenarios.golden import (
    DEFAULT_GOLDEN_PATH,
    GOLDEN_FORMAT,
    SECTIONS,
    check_section,
    compare_digests,
    load_section,
    pinned_digests,
    run_pinned,
    save_section,
    section_specs,
    tour_spec,
)
from repro.sanitize import ENV_FLAG as SANITIZE_FLAG
from repro.scenarios.runner import run_scenario, scenario_cells
from repro.scenarios.spec import WorkloadDef

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden.json"

ALL_SECTIONS = sorted(SECTIONS)


@pytest.fixture(scope="module")
def current_digests():
    """Run the tour once for the whole module (sub-second per cell)."""
    return pinned_digests([tour_spec()])


def test_golden_file_is_pinned():
    assert GOLDEN_PATH.exists(), (
        "tests/golden/golden.json missing — pin it with "
        "'repro golden --update'")
    doc = json.loads(GOLDEN_PATH.read_text())
    assert doc["format"] == GOLDEN_FORMAT
    assert set(doc) == {"format", *SECTIONS}


def test_golden_tour_matches_pinned(current_digests):
    """The regression check itself: current behaviour == pinned."""
    report = check_section("digests", GOLDEN_PATH, current=current_digests)
    assert report.ok, "\n" + report.describe()
    assert len(report.matched) == tour_spec().num_cells


def test_golden_runs_are_sanitized_and_nontrivial():
    """The tour must exercise real protocol activity (else the digests
    pin nothing) and run with the sanitizer armed — which is switched
    back off afterwards."""
    before = os.environ.get("REPRO_SANITIZE")
    spec = replace(tour_spec(), workloads=(WorkloadDef("intruder"),),
                   schemes=("puno",))
    st = run_pinned(spec).stats("intruder", "puno")
    assert os.environ.get("REPRO_SANITIZE") == before
    assert st.sanitizer_checks > 0, "sanitizer must be armed"
    assert st.tx_committed > 0
    assert st.tx_aborted > 0, "tour must include real contention"
    # The PUNO cells must actually drive the PUNO machinery, otherwise
    # the meta-test mutation below would be invisible.
    assert st.puno_unicasts > 0
    assert st.puno_pbuffer_updates > 0


def test_sanitizer_does_not_steer_the_tour(monkeypatch):
    """Every tour cell run plain ends in the snapshot of its sanitized
    run, less the ``sanitizer_checks`` count: the checks observe the
    protocol without changing one event of it."""
    def snapshots(result):
        out = []
        for r in result.results:
            snap = r.stats.snapshot()
            out.append((snap.pop("sanitizer_checks"), snap))
        return out

    sanitized = snapshots(run_pinned(tour_spec()))
    monkeypatch.delenv(SANITIZE_FLAG, raising=False)
    plain = snapshots(run_scenario(tour_spec(), cache=False))
    assert len(plain) == tour_spec().num_cells == 8
    assert all(checks > 0 for checks, _ in sanitized)
    assert all(checks == 0 for checks, _ in plain)
    assert [snap for _, snap in plain] == [snap for _, snap in sanitized]


def test_compare_digests_reports_all_categories():
    pinned = {"a/x": "1", "b/x": "2", "c/x": "3"}
    current = {"a/x": "1", "b/x": "9", "d/x": "4"}
    report = compare_digests(pinned, current)
    assert not report.ok
    assert report.matched == ["a/x"]
    assert report.mismatched == {"b/x": ("2", "9")}
    assert report.missing == ["c/x"]
    assert report.extra == ["d/x"]
    text = report.describe()
    assert "MISMATCH b/x" in text
    assert "MISSING  c/x" in text
    assert "EXTRA    d/x" in text
    assert "FAILED" in text


def test_save_and_load_roundtrip(tmp_path):
    """Saving creates the file; saving over a file of an older layout
    starts it afresh instead of mixing key formats."""
    path = tmp_path / "golden.json"
    digests = {"golden-tour/intruder/puno/s0": "ab" * 32}
    save_section("digests", digests, path)
    assert load_section("digests", path) == digests
    path.write_text(json.dumps({"format": 1, "digests": {"a/b": "0"}}))
    save_section("digests", digests, path)
    assert json.loads(path.read_text()) == {"format": GOLDEN_FORMAT,
                                            "digests": digests}


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"format": 999, "digests": {}}))
    with pytest.raises(ValueError, match="format"):
        load_section("digests", path)


def test_default_path_is_repo_relative():
    assert DEFAULT_GOLDEN_PATH == Path("tests") / "golden" / "golden.json"


def test_golden_schemes_cover_both_designs():
    spec = tour_spec()
    assert "baseline" in spec.schemes
    assert "puno" in spec.schemes
    assert {w.label for w in spec.workloads} == {"intruder", "kmeans",
                                                 "vacation", "genome"}


# ---------------------------------------------------------------------
# every pinned section shares one save / load / check path
# ---------------------------------------------------------------------

@pytest.mark.parametrize("section", ALL_SECTIONS)
def test_section_is_pinned(section):
    """Every cell of the section's grids is pinned, and nothing else."""
    pinned = load_section(section, GOLDEN_PATH)
    expected = {f"{spec.name}/{wl}/{scheme}/s{seed}"
                for spec in section_specs(section)
                for wl, scheme, seed in scenario_cells(spec)}
    assert set(pinned) == expected
    for digest in pinned.values():
        assert len(digest) == 64
        int(digest, 16)  # valid hex


@pytest.mark.parametrize("section", ALL_SECTIONS)
def test_section_roundtrip_keeps_other_sections(section, tmp_path):
    path = tmp_path / "golden.json"
    for other in SECTIONS:
        save_section(other, {f"{other}/wl/s/s0": "ab" * 32}, path)
    save_section(section, {"grid/wl/s/s0": "cd" * 32}, path)
    assert load_section(section, path) == {"grid/wl/s/s0": "cd" * 32}
    for other in SECTIONS:
        if other != section:
            assert load_section(other, path) == {
                f"{other}/wl/s/s0": "ab" * 32}


@pytest.mark.parametrize("section", ALL_SECTIONS)
def test_section_reports_drift(section):
    pinned = load_section(section, GOLDEN_PATH)
    ok = check_section(section, GOLDEN_PATH, current=dict(pinned))
    assert ok.ok and len(ok.matched) == len(pinned)
    changed, dropped = sorted(pinned)[:2]
    current = dict(pinned)
    current[changed] = "0" * 64
    del current[dropped]
    current["new/wl/s/s0"] = "1" * 64
    report = check_section(section, GOLDEN_PATH, current=current)
    assert not report.ok
    assert set(report.mismatched) == {changed}
    assert report.missing == [dropped]
    assert report.extra == ["new/wl/s/s0"]


@pytest.mark.parametrize("section", ALL_SECTIONS)
def test_section_subset_filter(section):
    """Restricting to one scenario (CI's scale job checks only
    ``paper-256``) ignores the other grids' cells instead of reporting
    them missing; a smoke grid answers to its parent's name."""
    spec = section_specs(section)[0]
    name = spec.name.removesuffix("-smoke")
    assert section_specs(section, (name,)) == [spec]
    pinned = load_section(section, GOLDEN_PATH)
    subset = {c: d for c, d in pinned.items()
              if c.startswith(f"{spec.name}/")}
    report = check_section(section, GOLDEN_PATH, scenarios=(name,),
                           current=subset)
    assert report.ok and not report.missing
    assert len(report.matched) == len(subset) > 0
    with pytest.raises(ValueError, match="no-such-grid"):
        section_specs(section, ("no-such-grid",))


@pytest.mark.parametrize("section", ALL_SECTIONS)
def test_section_never_pinned_raises(section, tmp_path):
    path = tmp_path / "golden.json"
    with pytest.raises(FileNotFoundError):
        load_section(section, path)
    other = next(s for s in SECTIONS if s != section)
    save_section(other, {"grid/wl/s/s0": "ab" * 32}, path)
    with pytest.raises(KeyError, match=f"no {section} section"):
        load_section(section, path)


def test_subset_update_keeps_the_other_grids(tmp_path):
    path = tmp_path / "golden.json"
    save_section("scale_digests", {"paper-256-smoke/zipf/puno/s0": "a",
                                   "paper-1024-smoke/zipf/puno/s0": "b"},
                 path)
    save_section("scale_digests", {"paper-256-smoke/zipf/puno/s0": "c"},
                 path, scenarios=("paper-256",))
    assert load_section("scale_digests", path) == {
        "paper-256-smoke/zipf/puno/s0": "c",
        "paper-1024-smoke/zipf/puno/s0": "b"}


# ---------------------------------------------------------------------
# meta-test: the suite must detect a one-line protocol change
# ---------------------------------------------------------------------

def test_golden_detects_skipped_mp_relay(monkeypatch, current_digests):
    """Flip one protocol line — drop the MP-bit relay on UNBLOCK
    (requesters stop reporting mispredicted unicasts back to the
    directory, so the P-Buffer never invalidates stale predictions) —
    and assert the golden comparison catches the drift.

    This is the detection guarantee the suite exists for: if this
    meta-test ever passes with ``report.ok`` true, the digests have
    stopped covering the protocol.
    """
    monkeypatch.setattr(Mshr, "mp_node", lambda self: -1)
    mutated = pinned_digests([tour_spec()])
    report = check_section("digests", GOLDEN_PATH, current=mutated)
    assert not report.ok, (
        "golden suite failed to detect a skipped MP-bit relay — "
        "digest coverage has regressed")
    # Every PUNO cell with real contention should drift; baseline
    # cells never send unicasts, so their digests must NOT change
    # (proves the mutation was surgical, not an environment diff).
    assert any("/puno/" in cell for cell in report.mismatched)
    baseline_cells = {c for c in current_digests if "/baseline/" in c}
    assert len(baseline_cells) == 4
    assert baseline_cells <= set(report.matched)
    # And the unmutated tour still matches (sanity: the mismatch above
    # came from the monkeypatch, not from ambient nondeterminism).
    assert compare_digests(load_section("digests", GOLDEN_PATH),
                           current_digests).ok
