"""Tests for the scenario subsystem: spec validation, the built-in
registry, the matrix runner (cache bit-identity + resume from the store),
manifests, and the determinism audit over every registered scenario."""

import json

import pytest

from repro.analysis.parallel import run_tasks_resilient
from repro.scenarios import (
    ScenarioSpec,
    WorkloadDef,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
)
from repro.scenarios.registry import _REGISTRY
from repro.scenarios.runner import scenario_cells, scenario_tasks
from repro.sim.resultcache import ResultCache


def tiny_spec(**kw):
    """A fast 32-node family matrix for runner tests."""
    defaults = dict(
        name="tiny-32",
        nodes=32,
        workloads=(WorkloadDef("hotspot", kind="hotspot",
                               params={"instances": 4, "gap": 40}),),
        schemes=("baseline", "puno"),
        scale=1.0,
        seeds=(0,),
    )
    defaults.update(kw)
    return ScenarioSpec(**defaults)


# =====================================================================
# spec validation
# =====================================================================

def test_valid_spec_has_no_problems():
    assert tiny_spec().validate() == []


def test_chain_meshes_are_valid():
    """A prime count only factors as an Nx1 chain, which Mesh runs like
    any other shape (``repro compare --nodes 7``)."""
    assert tiny_spec(nodes=37).validate() == []


@pytest.mark.parametrize("kw,needle", [
    (dict(name=""), "no name"),
    (dict(nodes=0), "positive"),
    (dict(faults="warp=0.1"), "unknown fault spec key"),
    (dict(workloads=()), "no workloads"),
    (dict(schemes=("baseline", "warp")), "unknown scheme"),
    (dict(schemes=()), "no schemes"),
    (dict(scale=0), "scale"),
    (dict(seeds=()), "seed"),
    (dict(smoke_scale=0), "smoke_scale"),
    (dict(overrides={"engine": {"x": 1}}), "override section"),
    (dict(overrides={"puno": {"warp_factor": 9}}), "overrides rejected"),
    (dict(faults="drop=2.0"), "fault"),
    (dict(overrides={"network": {"topology": "hier"}}),
     "overrides rejected"),
    (dict(overrides={"puno": {"adaptive_timeout": False,
                              "fixed_timeout": 0}}),
     "overrides rejected: puno.fixed_timeout"),
])
def test_invalid_specs_are_reported(kw, needle):
    problems = tiny_spec(**kw).validate()
    assert problems, f"expected a problem for {kw}"
    assert any(needle in p for p in problems), (needle, problems)


def test_duplicate_labels_and_unknown_kinds_reported():
    spec = tiny_spec(workloads=(
        WorkloadDef("a", kind="hotspot"), WorkloadDef("a", kind="zipf")))
    assert any("duplicate" in p for p in spec.validate())
    spec = tiny_spec(workloads=(WorkloadDef("x", kind="quantum"),))
    assert any("unknown kind" in p for p in spec.validate())
    spec = tiny_spec(workloads=(WorkloadDef("nosuch"),))  # stamp default
    assert any("unknown STAMP" in p for p in spec.validate())


def test_config_applies_overrides():
    spec = tiny_spec(overrides={"puno": {"timeout_scale": 0.5},
                                "htm": {"nack_backoff": 99}})
    cfg = spec.config()
    assert cfg.num_nodes == 32
    # the P-Buffer is sized one entry per node past the 16 default
    assert cfg.puno.pbuffer_entries >= 32
    assert cfg.puno.timeout_scale == 0.5
    assert cfg.htm.nack_backoff == 99
    # seeds perturb the config seed axis
    assert spec.config(seed=3).seed != cfg.seed


def test_smoke_shrinks_but_keeps_shape():
    spec = tiny_spec(scale=1.0, smoke_scale=0.25, seeds=(0, 1, 2),
                     workloads=(WorkloadDef("a", kind="hotspot"),
                                WorkloadDef("b", kind="zipf")),
                     smoke_workloads=1)
    smoke = spec.smoke()
    assert smoke.name == "tiny-32-smoke"
    assert smoke.nodes == spec.nodes
    assert smoke.schemes == spec.schemes
    assert smoke.scale == 0.25
    assert smoke.seeds == (0,)
    assert len(smoke.workloads) == 1
    assert smoke.validate() == []


def test_spec_dict_roundtrip():
    spec = tiny_spec(overrides={"puno": {"timeout_scale": 0.5}},
                     faults="delay=0.1,seed=3", tags=("x", "y"))
    clone = ScenarioSpec.from_dict(
        json.loads(json.dumps(spec.to_dict())))
    assert clone == spec


def test_num_cells():
    spec = tiny_spec(seeds=(0, 1, 2))
    assert spec.num_cells == 1 * 2 * 3


# =====================================================================
# registry
# =====================================================================

def test_builtins_all_validate():
    specs = list_scenarios()
    assert len(specs) >= 8
    names = {s.name for s in specs}
    assert {"paper-16", "stamp-hc-32", "hotspot-32", "zipf-64",
            "rw-64", "pbuffer-stress-64", "chaos-32"} <= names
    for spec in specs:
        assert spec.validate() == [], spec.name
        assert spec.description
        # every built-in's smoke variant must also be valid (CI runs it)
        assert spec.smoke().validate() == [], spec.name


def test_builtins_cover_scaled_meshes():
    nodes = {s.nodes for s in list_scenarios()}
    assert {16, 32, 64} <= nodes
    assert list_scenarios(tag="stamp")
    assert list_scenarios(tag="family")
    assert list_scenarios(tag="nosuchtag") == []


def test_get_unknown_scenario_raises():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("nope")


def test_register_rejects_duplicates_and_invalid():
    spec = tiny_spec(name="test-dup-xyz")
    try:
        register_scenario(spec)
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(spec)
        register_scenario(spec, replace=True)  # explicit redefinition ok
    finally:
        _REGISTRY.pop("test-dup-xyz", None)
    with pytest.raises(ValueError, match="invalid"):
        register_scenario(tiny_spec(name=""))


# =====================================================================
# runner
# =====================================================================

def test_cells_and_tasks_align():
    spec = tiny_spec(seeds=(0, 1))
    cells = scenario_cells(spec)
    tasks = scenario_tasks(spec)
    assert len(cells) == len(tasks) == spec.num_cells
    assert cells[0] == ("hotspot", "baseline", 0)
    assert cells[1] == ("hotspot", "puno", 0)
    assert cells[2] == ("hotspot", "baseline", 1)
    # multi-seed rows carry the seed in the sweep label
    assert tasks[0].workload == "hotspot@s0"
    assert tasks[0].config.num_nodes == 32
    single = scenario_tasks(tiny_spec())
    assert single[0].workload == "hotspot"


def test_run_scenario_rejects_invalid():
    with pytest.raises(ValueError, match="invalid"):
        run_scenario(tiny_spec(schemes=("warp",)), cache=False)


@pytest.mark.parametrize("checkpoint", [True, "some/dir", 0, object()],
                         ids=["true", "path", "zero", "object"])
def test_run_scenario_rejects_a_checkpoint(checkpoint):
    """``checkpoint`` survives only as ``False``/``None``: the result
    store is the checkpoint, so any other value is a caller bug."""
    with pytest.raises(TypeError, match="checkpoint"):
        run_scenario(tiny_spec(), cache=False, checkpoint=checkpoint)


def test_matrix_run_cache_bitidentical_and_resume(tmp_path):
    """The acceptance path: a 32-node scenario x {baseline, puno}
    matrix completes end-to-end; a re-run against the warm cache is
    served entirely from cache with bit-identical digests, so a re-run
    resumes without executing a single cell."""
    spec = tiny_spec(scale=0.5)
    cache = ResultCache(tmp_path / "cache")

    first = run_scenario(spec, cache=cache)
    assert first.cache_hits == 0
    assert len(first.results) == 2
    digests = first.snapshot_digests()
    assert set(digests) == {"hotspot/baseline/s0", "hotspot/puno/s0"}
    st_base = first.stats("hotspot", "baseline")
    st_puno = first.stats("hotspot", "puno")
    assert st_base.tx_committed == st_puno.tx_committed > 0
    assert st_base.tx_aborted > 0  # the family must contend
    assert st_puno.puno_unicasts > 0  # and PUNO must engage

    # warm cache: every cell a hit, digests bit-identical
    second = run_scenario(spec, cache=cache)
    assert second.cache_hits == 2
    assert second.snapshot_digests() == digests

    # resume: all cells come back without running anything
    calls = []

    def boom(task):
        calls.append(task)
        raise AssertionError("resume must not re-run completed cells")

    tasks = scenario_tasks(spec)
    resumed = run_tasks_resilient(tasks, 1, cache=cache, runner=boom)
    assert calls == []
    assert [r.stats.snapshot_digest() for r in resumed] == [
        digests["hotspot/baseline/s0"], digests["hotspot/puno/s0"]]

    with pytest.raises(KeyError):
        first.stats("hotspot", "baseline", seed=9)


def test_smoke_run_and_manifest(tmp_path):
    spec = tiny_spec(smoke_scale=0.5)
    result = run_scenario(spec, smoke=True, cache=False)
    assert result.spec.name == "tiny-32-smoke"
    text = result.render_text()
    assert "tiny-32-smoke" in text and "exec x" in text

    manifest = result.write_manifest(tmp_path)
    doc = json.loads(manifest.read_text())
    assert doc["scenario"]["name"] == "tiny-32-smoke"
    assert len(doc["cells"]) == 2
    for cell in doc["cells"]:
        assert len(cell["snapshot_sha256"]) == 64
        assert cell["summary"]["tx_committed"] > 0
    cell_files = sorted(p.name for p in (manifest.parent / "cells").iterdir())
    assert cell_files == ["hotspot_baseline_s0.json", "hotspot_puno_s0.json"]
    # the per-cell snapshot digests what the manifest claims
    snap = json.loads((manifest.parent / "cells" / cell_files[0]).read_text())
    assert snap["execution_cycles"] > 0

    assert result.stats("hotspot", "puno").tx_committed > 0


# =====================================================================
# determinism audit: every registered scenario, twice, bit-identical
# =====================================================================

@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_scenario_smoke_is_deterministic(name):
    """Run each built-in scenario's smoke variant twice in-process and
    require bit-identical snapshot digests — the scenario matrix is an
    experiment artifact, so nondeterminism anywhere (workload
    generation, scheduling, fault injection) is a bug."""
    spec = get_scenario(name)
    a = run_scenario(spec, smoke=True, cache=False)
    b = run_scenario(spec, smoke=True, cache=False)
    da, db = a.snapshot_digests(), b.snapshot_digests()
    assert da == db
    assert len(da) == spec.smoke().num_cells
