"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_describe(capsys):
    assert main(["describe"]) == 0
    out = capsys.readouterr().out
    assert "MESI" in out and "P-Buffer" in out


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("bayes", "ssca2", "synthetic"):
        assert name in out


def test_run_stamp(capsys):
    rc = main(["run", "kmeans", "--scale", "0.15", "--scheme", "baseline"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kmeans under baseline" in out
    assert "commits" in out


def test_run_json(capsys):
    rc = main(["run", "ssca2", "--scale", "0.15", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tx_committed"] > 0
    assert "abort_rate" in data


def test_run_synthetic_small_mesh(capsys):
    rc = main(["run", "synthetic", "--nodes", "4", "--instances", "4",
               "--shared-lines", "8", "--tx-reads", "3",
               "--tx-writes", "1"])
    assert rc == 0
    assert "synthetic" in capsys.readouterr().out


def test_compare_subset(capsys):
    rc = main(["compare", "kmeans", "--scale", "0.15",
               "--schemes", "baseline,puno"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "puno" in out
    assert "aborts x" in out


def test_compare_unknown_scheme(capsys):
    rc = main(["compare", "kmeans", "--schemes", "baseline,nope"])
    assert rc == 2


def test_puno_runs_on_a_32_node_mesh(monkeypatch, capsys):
    """The P-Buffer is sized one entry per node off the 16-node mesh."""
    _guard_cache_env(monkeypatch)
    assert main(["run", "intruder", "--nodes", "32", "--scale", "0.05",
                 "--scheme", "puno"]) == 0
    assert main(["compare", "intruder", "--nodes", "32", "--scale",
                 "0.05", "--schemes", "baseline,puno", "--no-cache"]) == 0
    assert "puno" in capsys.readouterr().out


def test_compare_with_zero_instances(monkeypatch, capsys):
    """An empty program finishes at cycle 0: the base cell's zero
    execution time must not divide the exec x column."""
    _guard_cache_env(monkeypatch)
    assert main(["compare", "synthetic", "--instances", "0", "--nodes",
                 "4", "--schemes", "baseline,puno", "--no-cache"]) == 0
    assert "exec x" in capsys.readouterr().out


def test_compare_runs_a_chain_mesh(monkeypatch, capsys):
    """7 nodes only factor as a 7x1 chain, which the scenario runner
    takes like any other mesh."""
    _guard_cache_env(monkeypatch)
    assert main(["compare", "intruder", "--nodes", "7", "--scale", "0.05",
                 "--schemes", "baseline,puno", "--no-cache"]) == 0
    assert "scheme comparison" in capsys.readouterr().out


def test_experiment_table2(capsys):
    assert main(["experiment", "table2"]) == 0
    assert "Table II" in capsys.readouterr().out


def test_experiment_table3(capsys):
    assert main(["experiment", "table3"]) == 0
    assert "0.41%" in capsys.readouterr().out


def test_experiment_claims_exits_0_then_1_with_a_failing_row(
        claims_store, monkeypatch, capsys):
    from repro.analysis import claims
    _guard_cache_env(monkeypatch)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(claims_store))
    assert main(["experiment", "claims"]) == 0
    out = capsys.readouterr().out
    assert "claims at scale 0.4, seed 0: 38/38 hold over 47 cells" in out
    wrong = claims.Claim("Table II", claims.Agg("nodes"), "==", 32)
    monkeypatch.setattr(claims, "CLAIMS", claims.CLAIMS + (wrong,))
    assert main(["experiment", "claims"]) == 1
    [line] = [ln for ln in capsys.readouterr().out.splitlines()
              if "nodes == 32" in ln]
    assert "FAILS" in line


def test_area_custom_sizes(capsys):
    assert main(["area", "--txlb", "64"]) == 0
    out = capsys.readouterr().out
    assert "area_overhead" in out


def test_run_with_trace_and_hotspots(tmp_path, capsys):
    trace_file = tmp_path / "t.jsonl"
    rc = main(["run", "ssca2", "--scale", "0.15",
               "--trace", str(trace_file), "--hotspots"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "router utilization" in out
    assert trace_file.exists()
    assert trace_file.read_text().count("\n") > 10


def test_characterize_command(capsys):
    rc = main(["characterize", "labyrinth", "--scale", "0.3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sharing_degree" in out and "rmw_fraction" in out


def test_profile_text_report(capsys):
    rc = main(["profile", "ssca2", "--scale", "0.15", "--scheme", "puno",
               "--top", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "top functions (cumulative):" in out
    assert "event callbacks (invoked by Simulator.run):" in out
    assert "messages by type:" in out
    assert "GETS" in out


def test_profile_json_report(tmp_path, capsys):
    report_file = tmp_path / "prof.json"
    rc = main(["profile", "ssca2", "--scale", "0.15", "--json",
               "--out", str(report_file)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["events"] > 0
    assert data["events_per_sec"] > 0
    assert data["top_cumulative"] and data["event_callbacks"]
    # callback events are attributed from the drain-loop caller graph:
    # the census names the model's handlers, never the engine itself,
    # and accounts for (nearly) every executed event
    rows = data["event_callbacks"]
    assert not any("sim/engine.py" in r["callback"] for r in rows)
    assert any("htm/node.py" in r["callback"] for r in rows)
    total_cb_events = sum(r["events"] for r in rows)
    assert 0.9 * data["events"] <= total_cb_events <= data["events"]
    assert json.loads(report_file.read_text()) == data


def test_profile_counts_native_counter_firings():
    """A tick-heavy PUNO cell (64-node Zipf): the rollover ticks run no
    callback, so the census reads them from the counters as a row of
    their own, and the rows still account for the events."""
    from repro.analysis.profiler import profile_run
    from repro.scenarios.spec import scaled_config
    from repro.system import System
    from repro.workloads.families import make_family_workload

    def cell():
        wl = make_family_workload("zipf", num_nodes=64, scale=0.05, seed=0)
        return wl, scaled_config(64, seed=0)

    data = profile_run(*cell(), "puno").to_dict()
    wl, cfg = cell()
    plain = System(cfg, wl, "puno").run().stats
    rows = data["event_callbacks"]
    native = [r for r in rows if "engine-native counter" in r["callback"]]
    assert [r["callback"] for r in native] == [
        "repro.core.pbuffer.PBuffer (engine-native counter)"]
    assert native[0]["events"] == plain.puno_timeouts
    assert native[0]["events"] > data["events"] // 2  # tick-heavy
    total = sum(r["events"] for r in rows)
    assert 0.9 * data["events"] <= total <= data["events"]


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])


def test_parser_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "not-a-workload"])


# ---------------------------------------------------------------------
# fault injection and chaos tours
# ---------------------------------------------------------------------

def test_run_with_faults_spec(capsys):
    rc = main(["run", "intruder", "--nodes", "4", "--scale", "0.1",
               "--faults", "dup=0.02,delay=0.05,seed=3"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "intruder" in captured.out
    assert "faults injected" in captured.err


@pytest.mark.parametrize("spec", ["bogus=1", "drop", "drop=lots"])
def test_run_bad_faults_spec_is_usage_error(capsys, spec):
    """A malformed --faults is a usage error (exit 2), as it is for
    chaos, not a traceback."""
    assert main(["run", "kmeans", "--faults", spec]) == 2
    assert "bad --faults" in capsys.readouterr().err


def test_chaos_smoke_passes(capsys):
    rc = main(["chaos", "--workloads", "intruder", "--nodes", "4",
               "--scale", "0.05", "--faults", "dup=0.02,delay=0.05"])
    assert rc == 0
    assert "chaos verdict: PASS" in capsys.readouterr().out


def test_chaos_json_payload(capsys):
    rc = main(["chaos", "--workloads", "intruder", "--nodes", "4",
               "--scale", "0.05", "--faults", "dup=0.02,delay=0.05",
               "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["outcomes"]


def test_chaos_without_faults_is_usage_error(capsys):
    assert main(["chaos"]) == 2
    assert "no faults configured" in capsys.readouterr().err


def test_chaos_unknown_workload_is_usage_error(capsys):
    rc = main(["chaos", "--workloads", "not-a-workload",
               "--faults", "drop=0.1"])
    assert rc == 2


def test_chaos_unknown_scheme_is_usage_error(capsys):
    rc = main(["chaos", "--schemes", "puno,not-a-scheme",
               "--faults", "drop=0.1"])
    assert rc == 2
    assert "not-a-scheme" in capsys.readouterr().err


def test_chaos_enables_puno_for_every_scheme_that_needs_it(capsys):
    """ats+puno runs with the PUNO units on, so its cells are not the
    ats cells under another name."""
    rc = main(["chaos", "--schemes", "ats,ats+puno",
               "--faults", "dup=0.02,delay=0.05,seed=7",
               "--workloads", "intruder", "--nodes", "4", "--json"])
    assert rc == 0
    ats, ats_puno = json.loads(capsys.readouterr().out)["outcomes"]
    assert (ats["scheme"], ats_puno["scheme"]) == ("ats", "ats+puno")
    assert ats["status"] == ats_puno["status"] == "committed"
    del ats["scheme"], ats_puno["scheme"]
    assert ats != ats_puno


def test_chaos_sizes_the_pbuffer_for_any_mesh(capsys):
    """A 32-node tour gets the scaled configuration: one P-Buffer
    entry per node."""
    rc = main(["chaos", "--nodes", "32", "--schemes", "puno",
               "--workloads", "kmeans", "--faults", "delay=0.01"])
    assert rc == 0
    assert "chaos verdict: PASS" in capsys.readouterr().out


def test_chaos_sanitizer_violation_names_the_cell(capsys, monkeypatch):
    """A violation is a bug, not a verdict: the tour fails with exit 1
    and names the cell that raised."""
    from repro.sanitize import SanitizerViolation
    from repro.system import System

    def violating_run(self, max_cycles=None, audit=True):
        raise SanitizerViolation("mesi-single-owner", "two owners",
                                 cycle=42)

    monkeypatch.setattr(System, "run", violating_run)
    rc = main(["chaos", "--workloads", "kmeans", "--nodes", "4",
               "--schemes", "backoff", "--faults", "delay=0.05"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "'kmeans'/'backoff'" in captured.err
    assert "SanitizerViolation" in captured.err
    assert "chaos verdict" not in captured.out


def test_scenario_run_with_stalled_cells_prints_table_and_exits_1(
        capsys, monkeypatch):
    from repro.scenarios import ScenarioSpec, WorkloadDef
    from repro.scenarios.registry import _REGISTRY
    spec = ScenarioSpec(name="lossy-4", nodes=4,
                        workloads=(WorkloadDef("kmeans"),),
                        schemes=("baseline",), scale=0.1,
                        faults="drop=0.02,seed=7")
    monkeypatch.setitem(_REGISTRY, spec.name, spec)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert main(["scenario", "run", "lossy-4"]) == 1
    captured = capsys.readouterr()
    assert "scenario lossy-4" in captured.out
    assert "deadlock" in captured.out
    assert "kmeans/baseline/s0 stalled" in captured.err


# ---------------------------------------------------------------------
# resume: a re-run against the result store
# ---------------------------------------------------------------------

def _guard_cache_env(monkeypatch):
    """Register the process-wide cache switches with monkeypatch
    *before* the code under test sets them via os.environ directly, so
    teardown removes whatever _apply_cache_flag leaves behind."""
    for name in ("REPRO_NO_CACHE", "REPRO_CACHE_DIR"):
        monkeypatch.setenv(name, "guard")
        monkeypatch.delenv(name)


@pytest.mark.parametrize("command", [
    ["compare", "kmeans"], ["experiment", "fig10"],
    ["scenario", "run", "hotspot-32"], ["tournament"]],
    ids=["compare", "experiment", "scenario", "tournament"])
@pytest.mark.parametrize("flag", [["--resume"],
                                  ["--checkpoint-dir", "somewhere"]],
                         ids=["resume", "checkpoint-dir"])
def test_resume_and_checkpoint_flags_are_gone(command, flag, capsys):
    """Re-running with the cache on is the resume, so no grid command
    takes a resume or checkpoint flag any more."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(command + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_compare_rerun_resumes_from_the_store(tmp_path, monkeypatch,
                                              capsys):
    """compare stores each cell under REPRO_CACHE_DIR; a re-run with
    one entry lost recomputes just that one, and --no-cache writes
    nothing."""
    _guard_cache_env(monkeypatch)
    store = tmp_path / "store"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(store))
    argv = ["compare", "kmeans", "--nodes", "4", "--scale", "0.1",
            "--schemes", "baseline,puno"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    entries = sorted(store.rglob("*.pkl"))
    assert len(entries) == 2  # one per scheme
    entries[0].unlink()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert len(list(store.rglob("*.pkl"))) == 2
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "off"))
    assert main(argv + ["--no-cache"]) == 0
    assert capsys.readouterr().out == first
    assert not (tmp_path / "off").exists()


# ---------------------------------------------------------------------
# scenario subcommand
# ---------------------------------------------------------------------

def test_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("paper-16", "hotspot-32", "zipf-64", "chaos-32"):
        assert name in out


def test_scenario_list_tag_filter(capsys):
    assert main(["scenario", "list", "--tag", "chaos"]) == 0
    out = capsys.readouterr().out
    assert "chaos-32" in out and "paper-16" not in out


def test_scenario_validate_all(capsys):
    assert main(["scenario", "validate"]) == 0
    out = capsys.readouterr().out
    assert "paper-16: ok" in out


def test_scenario_validate_unknown_fails(capsys):
    assert main(["scenario", "validate", "nope"]) == 1


def test_scenario_run_requires_name(capsys):
    assert main(["scenario", "run"]) == 2
    assert main(["scenario", "run", "nope"]) == 2


def test_scenario_run_smoke(tmp_path, monkeypatch, capsys):
    _guard_cache_env(monkeypatch)
    rc = main(["scenario", "run", "prodcons-32", "--smoke", "--no-cache",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "prodcons-32-smoke" in out
    assert "exec x" in out
    manifest = tmp_path / "prodcons-32-smoke" / "manifest.json"
    doc = json.loads(manifest.read_text())
    assert len(doc["cells"]) == 2


def test_scenario_run_json(monkeypatch, capsys):
    _guard_cache_env(monkeypatch)
    rc = main(["scenario", "run", "prodcons-32", "--smoke", "--no-cache",
               "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"]["name"] == "prodcons-32-smoke"
    assert all(len(c["snapshot_sha256"]) == 64 for c in doc["cells"])


# ---------------------------------------------------------------------
# golden subcommand
# ---------------------------------------------------------------------

def test_golden_check_matches_pinned(capsys):
    from pathlib import Path
    golden = Path(__file__).parent / "golden" / "golden.json"
    assert main(["golden", "--file", str(golden)]) == 0
    assert "8 cell(s) match" in capsys.readouterr().out


def test_golden_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["golden", "--file", str(tmp_path / "none.json")]) == 2
    assert "repro golden --update" in capsys.readouterr().err


def test_golden_scale_exit_codes(tmp_path, monkeypatch, capsys):
    """--scale exits 2 on an unpinned section or an unknown scenario
    and 1 on drift; the cells themselves are stubbed out here (the
    real ones take seconds, CI's scale-smoke job runs them)."""
    from repro.scenarios import golden
    path = tmp_path / "golden.json"
    golden.save_section("digests", {"golden-tour/a/b/s0": "0" * 64}, path)
    assert main(["golden", "--scale", "--file", str(path)]) == 2
    assert "--scale --update" in capsys.readouterr().err
    assert main(["golden", "--scale", "--scenarios", "nope",
                 "--file", str(path)]) == 2
    cell = "paper-256-smoke/zipf/baseline/s0"
    monkeypatch.setattr(golden, "pinned_digests",
                        lambda specs, verbose=False: {cell: "1" * 64})
    assert main(["golden", "--scale", "--update", "--scenarios",
                 "paper-256", "--file", str(path)]) == 0
    assert main(["golden", "--scale", "--scenarios", "paper-256",
                 "--file", str(path)]) == 0
    golden.save_section("scale_digests", {cell: "2" * 64}, path)
    capsys.readouterr()
    assert main(["golden", "--scale", "--scenarios", "paper-256",
                 "--file", str(path)]) == 1
    assert f"MISMATCH {cell}" in capsys.readouterr().out


def test_golden_update_then_check(tmp_path, capsys):
    path = tmp_path / "golden.json"
    assert main(["golden", "--update", "--file", str(path)]) == 0
    assert path.exists()
    assert main(["golden", "--file", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["ok"] is True and len(doc["matched"]) == 8


# ---------------------------------------------------------------------
# tournament subcommand + golden --tournament
# ---------------------------------------------------------------------

def test_tournament_smoke_table(monkeypatch, capsys):
    _guard_cache_env(monkeypatch)
    rc = main(["tournament", "--smoke", "--no-cache",
               "--schemes", "baseline"])
    assert rc == 0
    out = capsys.readouterr().out
    # puno is forced in as the normalization base
    assert "puno" in out and "baseline" in out


def test_tournament_normalizes_against_puno_wherever_listed(monkeypatch,
                                                            capsys):
    _guard_cache_env(monkeypatch)
    rc = main(["tournament", "--smoke", "--no-cache",
               "--schemes", "baseline,puno"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "x = vs puno" in out and "x = vs baseline" not in out


def test_tournament_json_payload(monkeypatch, capsys):
    _guard_cache_env(monkeypatch)
    rc = main(["tournament", "--smoke", "--no-cache", "--json",
               "--schemes", "phase-priority,adaptive-requeue"])
    assert rc == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["scenario"]["name"].startswith("tournament-16")
    ran = {c["scheme"] for c in doc["cells"]}
    assert ran == {"puno", "phase-priority", "adaptive-requeue"}


def test_tournament_unknown_scheme_is_usage_error(capsys):
    assert main(["tournament", "--schemes", "no-such-scheme"]) == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_golden_tournament_check_matches_pinned(capsys):
    from pathlib import Path
    golden = Path(__file__).parent / "golden" / "golden.json"
    assert main(["golden", "--tournament", "--file", str(golden)]) == 0
    assert "cell(s) match" in capsys.readouterr().out


def test_golden_tournament_unpinned_section_is_exit_2(tmp_path, capsys):
    path = tmp_path / "golden.json"
    assert main(["golden", "--update", "--file", str(path)]) == 0
    capsys.readouterr()
    assert main(["golden", "--tournament", "--file", str(path)]) == 2
    assert "--tournament --update" in capsys.readouterr().err


def test_golden_tournament_update_then_drift_is_exit_1(tmp_path, capsys):
    path = tmp_path / "golden.json"
    assert main(["golden", "--update", "--file", str(path)]) == 0
    assert main(["golden", "--tournament", "--update",
                 "--file", str(path)]) == 0
    assert main(["golden", "--tournament", "--file", str(path)]) == 0
    # corrupt one pinned scheme cell: the check must exit 1
    doc = json.loads(path.read_text())
    doc["scheme_digests"]["tournament-16/intruder/lazy/s0"] = "0" * 64
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["golden", "--tournament", "--file", str(path)]) == 1
    assert "MISMATCH tournament-16/intruder/lazy/s0" in \
        capsys.readouterr().out
