"""The experiment harness: smoke tests at tiny scale, and every table
rendered from the claims table's cells."""

import pytest

from repro.analysis import claims
from repro.analysis import experiments as E
from repro.sim.stats import Stats
from repro.workloads.stamp import HIGH_CONTENTION

SCALE = 0.12


def test_table1_smoke():
    r = E.table1(scale=SCALE)
    assert len(r.data["rows"]) == 8
    assert "Table I" in r.text
    for row in r.data["rows"]:
        assert 0.0 <= row["measured abort %"] <= 100.0


def test_table2_smoke():
    r = E.table2()
    assert "MESI" in r.text
    assert r.data["config"].num_nodes == 16


def test_table3_smoke():
    r = E.table3()
    assert "Prio-Buffer" in r.text
    assert r.data["estimate"]["area_overhead"] > 0


def test_fig2_smoke():
    r = E.fig2(scale=SCALE)
    assert "average" in r.data["series"]
    assert all(0 <= v <= 100 for v in r.data["series"].values())


def test_fig3_smoke():
    r = E.fig3(scale=SCALE)
    assert tuple(r.data["distributions"]) == HIGH_CONTENTION


def test_full_evaluation_shares_sweep():
    figs = E.full_evaluation(scale=SCALE)
    assert set(figs) == {"fig10", "fig11", "fig12", "fig13", "fig14"}
    for r in figs.values():
        norm = r.data["normalized"]
        assert set(norm) == {"bayes", "intruder", "labyrinth", "yada",
                             "genome", "kmeans", "ssca2", "vacation"}
        for row in norm.values():
            assert row["baseline"] == pytest.approx(1.0)
        assert "HC-average" in r.text and "average" in r.text
    # one run of the 32 cells backs all five figures
    stats = figs["fig10"].data["stats"]
    assert len(stats) == 32
    assert all(r.data["stats"] is stats for r in figs.values())
    sweep = figs["fig10"].data["sweep"].stats
    assert sweep["bayes"]["puno"] is stats[("bayes", "puno")]


def test_single_fig_runs_own_sweep_if_needed():
    r = E.fig10(scale=SCALE)
    assert "hc_average" in r.data


def test_seed_averaged_evaluation():
    figs = E.seed_averaged_evaluation(scale=SCALE, seeds=2)
    assert set(figs) == {"fig10", "fig11", "fig12", "fig13", "fig14"}
    for r in figs.values():
        norm = r.data["normalized"]
        assert len(norm) == 8
        for row in norm.values():
            assert row["baseline"] == pytest.approx(1.0)
        assert "mean of 2 seeds" in r.text


def test_a_comparison_missing_a_cell_names_it():
    """A crashed or skipped cell never yields a partial, wrongly
    normalized table."""
    stats = {c: Stats(4) for c in E.cells(["Fig. 10"])}
    assert E.comparison("Fig. 10", stats).data["hc_average"]["puno"] == 1.0
    del stats[("intruder", "rmw")]
    with pytest.raises(ValueError, match="intruder/rmw"):
        E.comparison("Fig. 10", stats)


def test_every_table_renders_from_the_claims_cells(claims_store,
                                                   monkeypatch):
    """Against the store a claims run filled, every table simulates
    nothing, and each Fig. 10-14 average is the claims table's
    aggregate exactly."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(claims_store))
    scale, seed = 0.4, 0
    results = claims.run_cells(claims.cells(c.figure for c in claims.CLAIMS),
                               scale, seed)
    stats = {c: r.stats for c, r in results.items()}
    entries = sorted(claims_store.rglob("*.pkl"))
    assert len(entries) >= len(stats) == 47

    figs = {name: fn(scale, seed) for name, fn in (
        ("table1", E.table1), ("fig2", E.fig2), ("fig3", E.fig3),
        *((key, getattr(E, key)) for key, _, _ in E.COMPARISONS.values()))}
    evaluation = E.full_evaluation(scale, seed)
    averaged = E.seed_averaged_evaluation(scale, seeds=1)
    assert sorted(claims_store.rglob("*.pkl")) == entries

    for figure, (key, metric, _) in E.COMPARISONS.items():
        for r in (figs[key], evaluation[key]):
            for s in E.SCHEME_ORDER:
                for group, avg in (("HC", "hc_average"), ("all", "average")):
                    agg = claims.Agg(f"{metric} x", s, group, "mean")
                    assert r.data[avg][s] == agg.measure(stats), (key, agg)
            assert r.text == figs[key].text
        assert averaged[key].data["normalized"] == figs[key].data["normalized"]
