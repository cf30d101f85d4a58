"""Tests for the analysis layer: metrics, reports, sweeps, false-abort
views."""

import math

import pytest

from repro.analysis.falseabort import breakdown, false_abort_rate, \
    victim_distribution
from repro.analysis.metrics import METRICS, geomean, normalized
from repro.analysis.report import render_grouped, render_series, render_table
from repro.analysis.experiments import paper_spec
from repro.scenarios import ScenarioSpec, WorkloadDef, run_scenario
from repro.sim.config import SystemConfig
from repro.sim.stats import Stats


def test_normalized():
    assert normalized(5, 10) == 0.5
    assert normalized(0, 0) == 1.0  # both schemes saw nothing
    assert math.isinf(normalized(1, 0))


def test_geomean():
    assert geomean([1, 4]) == pytest.approx(2.0)
    assert geomean([]) == 0.0
    assert geomean([0, 2]) == 2.0  # zeros skipped


def test_metrics_registry_extracts():
    s = Stats(2)
    s.execution_cycles = 123
    s.nodes[0].tx_aborted = 4
    s.nodes[0].tx_attempts = 8
    assert METRICS["exec"](s) == 123
    assert METRICS["aborts"](s) == 4
    assert METRICS["abort_rate"](s) == 0.5


def test_false_abort_views():
    s = Stats(1)
    s.tx_getx_total = 10
    s.tx_getx_nacked = 6
    s.tx_getx_false_aborting = 4
    s.false_abort_victims.add(1, 3)
    s.false_abort_victims.add(12, 1)
    assert false_abort_rate(s) == 0.4
    b = breakdown(s)
    assert b["granted"] == pytest.approx(0.4)
    assert b["nacked_clean"] == pytest.approx(0.2)
    assert b["false_aborting"] == pytest.approx(0.4)
    d = victim_distribution(s, max_victims=10)
    assert d[1] == pytest.approx(0.75)
    assert d[10] == pytest.approx(0.25)  # 12 folded into the tail
    assert sum(d.values()) == pytest.approx(1.0)


def test_breakdown_empty():
    assert breakdown(Stats(1)) == {"granted": 0.0, "nacked_clean": 0.0,
                                   "false_aborting": 0.0}


def test_render_table_alignment():
    text = render_table([{"a": 1, "b": 2.5}, {"a": 30, "b": 0.125}],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert len({len(l) for l in lines[2:]}) <= 2  # aligned-ish


def test_render_table_empty():
    assert "(no data)" in render_table([])


def test_render_series_bars_scale():
    text = render_series({"x": 1.0, "y": 0.5}, title="S")
    x_line = next(l for l in text.splitlines() if l.startswith("x"))
    y_line = next(l for l in text.splitlines() if l.startswith("y"))
    assert x_line.count("█") > y_line.count("█")


def test_render_grouped():
    text = render_grouped({"w": {"a": 1.0, "b": 2.0}}, ["a", "b"])
    assert "w" in text and "1.000" in text and "2.000" in text


def test_scheme_sweep_end_to_end():
    synth = WorkloadDef("synth", kind="synthetic", params={
        "instances": 6, "shared_lines": 8, "tx_reads": 4, "tx_writes": 1})
    spec = ScenarioSpec(name="synth-4", nodes=4, workloads=(synth,),
                        schemes=("baseline", "puno"),
                        max_cycles=5_000_000)
    result = run_scenario(spec, cache=False)
    assert result.cells == [("synth", "baseline", 0), ("synth", "puno", 0)]
    base, puno = (result.stats("synth", s) for s in spec.schemes)
    assert base.tx_committed > 0 and puno.tx_committed > 0
    assert normalized(METRICS["exec"](puno), METRICS["exec"](base)) > 0


def test_paper_spec_shape():
    spec = paper_spec(seed=3)
    assert spec.validate() == []
    assert spec.schemes == ("baseline", "backoff", "rmw", "puno")
    assert len(spec.workloads) == 8
    # the Table II machine, simulator seed 1 whatever the workload seed
    assert spec.config(seed=3) == SystemConfig()
