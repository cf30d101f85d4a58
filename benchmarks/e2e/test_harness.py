"""Tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  The smoke
tests start real child interpreters on scaled-down grids, about a
minute in all.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import harness
import layers
import run

SRC = run.SRC
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench():
    return run.load_benchmark()


# ---------------------------------------------------------------------
# static contract
# ---------------------------------------------------------------------

def test_layer_map_covers_every_module():
    modules = sorted(p.relative_to(SRC / "repro").as_posix()
                     for p in (SRC / "repro").rglob("*.py"))
    assert modules
    unplaced = [m for m in modules if layers.layer_of_relpath(m) is None]
    assert unplaced == []
    placed = {layers.layer_of_relpath(m) for m in modules}
    assert set(layers.TIMED_LAYERS) <= placed


def test_layer_of_file_needs_the_package_path():
    assert layers.layer_of_file("/x/src/repro/sim/engine.py") == "engine"
    assert layers.layer_of_file("/x/src/repro/htm/contention/ats.py") == "cm"
    assert layers.layer_of_file("/x/src/repro/htm/node.py") == "htm"
    assert layers.layer_of_file("/usr/lib/python3/heapq.py") is None
    assert layers.layer_of_file("~") is None


def test_metric_names_and_units_are_well_formed(bench):
    names = [w["name"] for w in bench["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            assert NAME.fullmatch(m["name"]), m["name"]
            assert UNIT.fullmatch(m["unit"]), m["unit"]
            assert m["better"] in ("higher", "lower")
            names.append(m["name"])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert set(w["name"] for w in bench["workloads"]) == set(harness.WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


# ---------------------------------------------------------------------
# spans, memory, verdicts
# ---------------------------------------------------------------------

def test_span_self_time_is_duration_minus_children():
    spans = [
        {"id": "c", "name": "cell", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "b", "name": "workloads.build", "parent": "c",
         "start": 0.0, "end": 2.0},
        {"id": "r", "name": "system.run", "parent": "c",
         "start": 3.0, "end": 9.0},
        {"id": "a1", "name": "audit", "parent": "r", "start": 7.0, "end": 8.0},
        {"id": "a2", "name": "audit", "parent": "r", "start": 8.0, "end": 8.5},
    ]
    self_s = harness.span_self_times(spans)
    assert self_s == {"c": 2.0, "b": 2.0, "r": 4.5, "a1": 1.0, "a2": 0.5}


def test_recorder_nests_spans_under_the_open_cell():
    rec = harness.Recorder()
    cell = rec.open_cell()
    with rec.span("workloads.build"):
        pass
    with rec.span("system.run"):
        with rec.span("audit"):
            pass
    rec.close(cell)
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["audit"]["parent"] == by_name["system.run"]["id"]
    assert {s["cell"] for s in rec.spans} == {cell["id"]}
    self_s = harness.span_self_times(rec.spans)
    children = sum(s["end"] - s["start"] for s in rec.spans
                   if s["parent"] == cell["id"])
    assert self_s[cell["id"]] == pytest.approx(
        cell["end"] - cell["start"] - children)


def test_recorder_fails_a_cell_left_open():
    rec = harness.Recorder()
    rec.open_cell()
    rec.open_cell()  # the first cell's System never ran
    rec.fail_open_cells("pass ended")
    assert [c["ok"] for c in rec.cells] == [False, False]


def test_sliced_drain_is_bit_identical(monkeypatch):
    """Plain passes feed the engine in calibration slices; the profiled
    pass drains it unsliced.  Both must give the same cell digests."""
    monkeypatch.setattr(harness, "CALIBRATION_SLICE", 500)
    plain = harness.run_pass("puno_256", 0, smoke=True, mode="plain")
    profiled = harness.run_pass("puno_256", 0, smoke=True, mode="profile")
    in_run = [s for s in plain["spans"] if s["name"] == "calibrate"
              and s["parent"] != s["cell"]]
    assert len(in_run) > 2 * len(plain["cells"])
    assert all(c["ok"] for c in plain["cells"] + profiled["cells"])
    assert ({c["label"]: c["digest"] for c in plain["cells"]}
            == {c["label"]: c["digest"] for c in profiled["cells"]})


def test_a_pool_pass_needs_a_spool_directory():
    with pytest.raises(ValueError, match="spool"):
        harness.run_pass("scheme_tournament", 0, smoke=True)


def test_proc_status_parsing_and_peak_reset():
    status = ("Name:\tpython3\nVmPeak:\t  300000 kB\nVmHWM:\t   23668 kB\n"
              "VmRSS:\t   20000 kB\n")
    assert harness.parse_status_kb(status) == 23668
    assert harness.parse_status_kb(status, "VmRSS") == 20000
    with pytest.raises(ValueError):
        harness.parse_status_kb("VmRSS:\t 1 kB\n")
    with pytest.raises(ValueError):
        harness.parse_status_kb("VmHWM:\t 1 MB\n")
    block = b"\x01" * (64 * 2 ** 20)  # touches every page
    del block
    assert harness.status_kb() > harness.status_kb("VmRSS") + 32 * 1024
    harness.reset_peak_rss()
    assert harness.status_kb() < harness.status_kb("VmRSS") + 32 * 1024


def test_verdicts():
    assert run.verdict(10.0, 12.0, "lower", 0.1, 0.02) == "worse"
    assert run.verdict(10.0, 8.0, "higher", 0.1, 0.02) == "worse"
    assert run.verdict(10.0, 8.0, "lower", 0.1, 0.02) == "better"
    assert run.verdict(10.0, 10.1, "lower", 0.1, 0.02) == "same"
    assert run.verdict(10.0, 8.0, "lower", 0.1, 0.15) == "unresolved"
    # a gain within the repeat noise is not a gain
    assert run.verdict(10.0, 9.8, "lower", 0.1, 0.03) == "same"
    # nor is one that loses paired seeds
    pairs = [(10.0, 8.0)] * 8 + [(10.0, 10.5)] * 2
    assert run.verdict(10.0, 8.0, "lower", 0.1, 0.02, pairs) == "same"
    assert run.verdict(10.0, 8.0, "lower", 0.1, 0.02, pairs[:-1]
                       + [(10.0, 8.0)]) == "better"


def test_repeat_noise_comes_from_passes_of_one_seed():
    runs = [{"per_pass": [{"m": 9.0}, {"m": 10.0}, {"m": 11.0}]},
            {"per_pass": [{"m": 99.0}, {"m": 100.0}, {"m": 101.0}]},
            {"per_pass": [{"m": 5.0}]}]
    # 20% and 2%; one pass shows nothing
    assert run.repeat_noise(runs, "m") == pytest.approx((0.2 + 0.02) / 2)
    assert run.repeat_noise(runs, "abort_rate") == 0.0


def _ledger(path, value, digest):
    run_ = {"seed": 0, "correct": True, "grid_digest": digest,
            "metrics": {"setup_s": value, "sim_work_per_s": value,
                        "cell_peak_rss_mb": value, "abort_rate": value},
            "per_pass": [{"setup_s": value}, {"setup_s": value}]}
    path.write_text(json.dumps({"workloads": {"w": {"runs": [run_]}}}))
    return str(path)


def test_compare_fails_on_a_changed_grid_digest(tmp_path, capsys):
    a = _ledger(tmp_path / "a.json", 1.0, "d0")
    assert run.compare_main([a, _ledger(tmp_path / "b.json", 1.0, "d0")]) == 0
    assert run.compare_main([a, _ledger(tmp_path / "c.json", 1.0, "d1")]) == 1
    assert "simulated behaviour changed" in capsys.readouterr().out


def test_quartiles_match_statistics():
    import statistics
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    assert run.quartiles(values) == statistics.quantiles(values, n=4)
    assert run.quartiles([2.0]) == [2.0, 2.0, 2.0]


# ---------------------------------------------------------------------
# smoke runs through child interpreters
# ---------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, bench):
    record = run.measure(workload, seed=0, seconds=0, trace=True,
                         smoke=True)
    assert record["correct"], record["errors"]
    assert record["failed"] == 0 and record["attempted"] > 0
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(dict(record, trace=trace), bench)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m["name"] for m in bench[kind]}
        for value in line["metrics"].values():
            assert isinstance(value["value"], (int, float))
    assert record["layers"]["unattributed.share"] < 0.02
    assert re.fullmatch(r"[0-9a-f]{64}", record["grid_digest"])


def _run_cli(args, cwd, extra_env=None):
    env = run._child_env()
    env.pop("REPRO_NO_CACHE")
    env.update(extra_env or {})
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py"] + args,
                          cwd=str(cwd), env=env, capture_output=True,
                          text=True, timeout=300)


_FAILING_CELL = """
from repro.system import CoherenceViolation, System
_run = System.run
def run(self, *args, **kwargs):
    if self.scheme is not None and self.scheme.name == "baseline":
        raise CoherenceViolation("injected by the harness test")
    return _run(self, *args, **kwargs)
System.run = run
"""


def test_a_failing_cell_is_counted_and_fails_the_run(tmp_path):
    """The injected failure hits one tournament cell in a pool worker;
    the other cells still run, and the run exits nonzero."""
    (tmp_path / "sitecustomize.py").write_text(_FAILING_CELL)
    proc = _run_cli(["--workload", "scheme_tournament", "--seed", "0",
                     "--seconds", "0", "--trace", "0", "--smoke"],
                    run.REPO_ROOT,
                    {"PYTHONPATH": f"{SRC}:{tmp_path}"})
    assert proc.returncode == 1, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    cells_per_pass = 9  # smoke grid: intruder x every registered scheme
    assert line["correct"] is False
    assert line["attempted"] == run.MIN_PASSES * cells_per_pass
    assert line["failed"] == run.MIN_PASSES
    assert "injected by the harness test" in proc.stdout
    assert list(run.REPO_ROOT.glob(".e2e-spool-*")) == []


def test_contract_line_from_the_command(bench):
    proc = _run_cli(["--workload", "mesh_1024", "--seed", "1",
                     "--seconds", "0", "--trace", "0", "--smoke"],
                    run.REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in bench["end_to_end"]}


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(["--workload", "paper_eval", "--seed", "0",
                     "--seconds", "1", "--trace", "0"], tmp_path,
                    {"PYTHONPATH": ""})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
