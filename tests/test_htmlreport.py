"""Tests for the HTML report generator."""

import math

import pytest

from repro.analysis.htmlreport import Report


def test_basic_structure():
    rep = Report("My <Title>")
    text = rep.html()
    assert text.startswith("<!DOCTYPE html>")
    assert "My &lt;Title&gt;" in text  # escaped


def test_add_table():
    rep = Report("t")
    rep.add_table("Results", [{"workload": "bayes", "x": 0.5},
                              {"workload": "yada", "x": 1.25}])
    text = rep.html()
    assert "<h2>Results</h2>" in text
    assert "bayes" in text and "0.500" in text and "1.250" in text


def test_add_table_empty():
    rep = Report("t")
    rep.add_table("none", [])
    assert "(no data)" in rep.html()


def test_add_bars_scaling():
    rep = Report("t")
    rep.add_bars("Fig", {"a": 2.0, "b": 1.0}, unit="%")
    text = rep.html()
    assert "<svg" in text and "rect" in text
    # bar widths proportional: a's rect twice b's
    import re
    widths = [float(w) for w in re.findall(r"rect [^>]*width='([\d.]+)'",
                                           text)]
    assert widths[0] == pytest.approx(2 * widths[1], rel=0.05)


def test_grouped_bars_with_baseline_rule():
    rep = Report("t")
    rep.add_grouped_bars(
        "Fig. 10", {"bayes": {"base": 1.0, "puno": 0.5},
                    "yada": {"base": 1.0, "puno": 0.9}},
        schemes=["base", "puno"])
    text = rep.html()
    assert text.count("<rect") == 4
    assert "stroke-dasharray" in text  # the 1.0 baseline rule


def test_infinite_values_handled():
    rep = Report("t")
    rep.add_bars("inf", {"a": math.inf, "b": 1.0})
    rep.add_grouped_bars("g", {"w": {"s": math.inf}}, ["s"])
    text = rep.html()
    assert "inf" in text


def test_write_roundtrip(tmp_path):
    rep = Report("t")
    rep.add_text("hello & goodbye")
    rep.add_preformatted("raw <text>", title="Pre")
    path = rep.write(tmp_path / "r.html")
    content = (tmp_path / "r.html").read_text()
    assert "hello &amp; goodbye" in content
    assert "raw &lt;text&gt;" in content


def test_end_to_end_with_sweep(tmp_path):
    from repro.analysis.metrics import normalized
    from repro.scenarios import ScenarioSpec, WorkloadDef, run_scenario
    synth = WorkloadDef("synth", kind="synthetic", params={
        "instances": 5, "shared_lines": 8, "tx_reads": 4, "tx_writes": 1})
    spec = ScenarioSpec(name="synth-4", nodes=4, workloads=(synth,),
                        schemes=("baseline", "puno"),
                        max_cycles=5_000_000)
    res = run_scenario(spec, cache=False)
    base = res.stats("synth", "baseline").tx_aborted
    table = {"synth": {s: normalized(res.stats("synth", s).tx_aborted, base)
                       for s in spec.schemes}}
    rep = Report("sweep")
    rep.add_grouped_bars("aborts", table, ["baseline", "puno"])
    path = rep.write(tmp_path / "sweep.html")
    assert (tmp_path / "sweep.html").exists()
