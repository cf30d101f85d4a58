"""The one per-cell result store: keys, hit/miss/store through the
sweep executor, quarantine, the checksummed format and the
enable/disable policy."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.parallel import SweepTask, WorkloadSpec, \
    run_tasks_resilient, task_key
from repro.sim.config import override_config, small_config
from repro.sim.resultcache import (
    CacheCorruption,
    ResultCache,
    cache_enabled,
    config_fingerprint,
    default_cache,
    quarantine,
    read_checked_pickle,
    resolve_cache,
    workload_fingerprint,
    write_checked_pickle,
)
from repro.sim.stats import Stats
from repro.workloads.synthetic import make_synthetic_workload


def _tiny_workload(seed=3, instances=4):
    return make_synthetic_workload(num_nodes=4, instances=instances,
                                   shared_lines=16, tx_reads=4,
                                   tx_writes=1, seed=seed)


def _task(config=None, scheme="baseline", seed=3, instances=4,
          scale=1.0, max_cycles=5_000_000, faults=""):
    """One cell of the tiny synthetic workload on 4 nodes."""
    spec = WorkloadSpec("synthetic", kind="synthetic", num_nodes=4,
                        scale=scale, seed=seed,
                        params=(("instances", instances),
                                ("shared_lines", 16), ("tx_reads", 4),
                                ("tx_writes", 1)))
    return SweepTask("synthetic", scheme, config or small_config(4), spec,
                     max_cycles=max_cycles, faults=faults)


def _run(cache, *tasks):
    return run_tasks_resilient(tasks, jobs=1, cache=cache)


@pytest.fixture
def cfg():
    return small_config(4)


@pytest.fixture(autouse=True)
def _store_on(monkeypatch):
    """Every test starts with the store policy switches off."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


# ---------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------

def test_key_is_stable_for_identical_inputs(cfg):
    assert task_key(_task(cfg)) == task_key(_task(small_config(4)))


def test_key_changes_with_config(cfg):
    base = task_key(_task(cfg))
    assert task_key(_task(small_config(4, seed=2))) != base
    puno = override_config(cfg, {"puno": {"min_nacker_length": 0}})
    assert task_key(_task(puno)) != base


def test_key_changes_with_workload_seed_and_scale(cfg):
    base = task_key(_task(cfg, seed=3))
    assert task_key(_task(cfg, seed=4)) != base
    assert task_key(_task(cfg, instances=5)) != base
    assert task_key(_task(cfg, scale=0.5)) != base


def test_key_changes_with_cm(cfg):
    assert (task_key(_task(cfg, scheme="baseline"))
            != task_key(_task(cfg, scheme="backoff")))


def test_key_changes_with_budget_and_faults(cfg):
    base = task_key(_task(cfg))
    assert task_key(_task(cfg, max_cycles=4_000_000)) != base
    assert task_key(_task(cfg, faults="delay=0.05,seed=7")) != base
    assert (task_key(_task(cfg, faults="delay=0.05,seed=7"))
            != task_key(_task(cfg, faults="delay=0.05,seed=8")))


def test_workload_fingerprint_covers_ops():
    wa = _tiny_workload(seed=3)
    wb = _tiny_workload(seed=3)
    assert workload_fingerprint(wa) == workload_fingerprint(wb)
    assert (workload_fingerprint(wa)
            != workload_fingerprint(_tiny_workload(seed=9)))


def test_config_fingerprint_covers_nested_fields(cfg):
    assert (config_fingerprint(cfg)
            != config_fingerprint(
                override_config(cfg, {"puno": {"txlb_entries": 8}})))


# ---------------------------------------------------------------------
# hit / miss / store
# ---------------------------------------------------------------------

def test_miss_then_hit_returns_identical_stats(tmp_path, cfg):
    cache = ResultCache(tmp_path)
    (first,) = _run(cache, _task(cfg))
    assert cache.misses == 1 and cache.stores == 1
    assert not first.cache_hit

    (second,) = _run(cache, _task(small_config(4)))
    assert cache.hits == 1 and cache.stores == 1
    assert second.cache_hit
    assert second.wall_seconds == 0.0
    assert first.stats.snapshot() == second.stats.snapshot()


def test_warm_hit_never_builds_the_workload(tmp_path, cfg, monkeypatch):
    _run(tmp_path, _task(cfg), _task(cfg, scheme="backoff"))
    builds = []
    real_build = WorkloadSpec.build

    def counting_build(spec):
        builds.append(spec)
        return real_build(spec)

    monkeypatch.setattr(WorkloadSpec, "build", counting_build)
    warm = _run(tmp_path, _task(cfg), _task(cfg, scheme="backoff"))
    assert all(r.cache_hit for r in warm)
    assert builds == []
    _run(tmp_path, _task(cfg, seed=4))  # a miss still builds
    assert len(builds) == 1


def test_config_change_misses(tmp_path, cfg):
    cache = ResultCache(tmp_path)
    _run(cache, _task(cfg))
    _run(cache, _task(small_config(4, seed=7)))
    assert cache.hits == 0 and cache.misses == 2 and cache.stores == 2


def test_seed_change_misses(tmp_path, cfg):
    cache = ResultCache(tmp_path)
    _run(cache, _task(cfg, seed=3))
    _run(cache, _task(cfg, seed=4))
    assert cache.hits == 0 and cache.misses == 2


def test_scheme_and_budget_changes_miss(tmp_path, cfg):
    cache = ResultCache(tmp_path)
    _run(cache, _task(cfg))
    _run(cache, _task(cfg, scheme="backoff"))
    _run(cache, _task(cfg, max_cycles=4_000_000))
    assert cache.hits == 0 and cache.misses == 3 and cache.stores == 3


def test_fault_cell_never_shares_an_entry(tmp_path, cfg):
    """A fault cell is stored under its own key: it never replays the
    plain cell's result, nor one of a different fault profile."""
    cache = ResultCache(tmp_path)
    (plain,) = _run(cache, _task(cfg))
    (delayed,) = _run(cache, _task(cfg, faults="delay=0.05,seed=7"))
    (other,) = _run(cache, _task(cfg, faults="delay=0.05,seed=8"))
    assert not (plain.cache_hit or delayed.cache_hit or other.cache_hit)
    assert cache.hits == 0 and cache.stores == 3 and len(cache) == 3
    assert (delayed.stats.snapshot_digest()
            != plain.stats.snapshot_digest())
    (again,) = _run(cache, _task(cfg, faults="delay=0.05,seed=7"))
    assert again.cache_hit
    assert again.stats.snapshot_digest() == delayed.stats.snapshot_digest()


@pytest.mark.parametrize("faults", ["", "dup=0.05,delay=0.05,seed=7"])
def test_warm_replay_returns_what_the_cold_run_did(tmp_path, cfg, faults):
    """A replayed cell carries the cold run's injector summary and end
    clock, not only its Stats."""
    (cold,) = _run(ResultCache(tmp_path), _task(cfg, faults=faults))
    (warm,) = _run(ResultCache(tmp_path), _task(cfg, faults=faults))
    assert not cold.cache_hit and warm.cache_hit
    assert cold.end_cycle > 0
    assert bool(cold.faults) == bool(faults)
    assert (warm.faults, warm.end_cycle) == (cold.faults, cold.end_cycle)
    assert warm.stats.snapshot_digest() == cold.stats.snapshot_digest()


def test_corrupt_entry_is_a_miss(tmp_path, cfg):
    cache = ResultCache(tmp_path)
    key = task_key(_task(cfg))
    _run(cache, _task(cfg))
    path = cache._path(key)
    assert path.is_file()
    path.write_bytes(b"not a pickle")
    fresh = ResultCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.misses == 1
    assert fresh.quarantined == 1
    assert not path.exists()  # corrupt file moved aside, never re-read
    assert path.with_name(path.name + ".corrupt").is_file()


def test_truncated_entry_is_quarantined_not_raised(tmp_path, cfg):
    """A checksummed entry cut short mid-payload (the crash-during-
    write shape) is a quarantined miss, never an exception: the next
    run recomputes and re-stores the cell."""
    cache = ResultCache(tmp_path)
    key = task_key(_task(cfg))
    (first,) = _run(cache, _task(cfg))
    path = cache._path(key)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 16])  # valid magic, short payload
    fresh = ResultCache(tmp_path)
    (again,) = _run(fresh, _task(cfg))
    assert not again.cache_hit
    assert fresh.quarantined == 1 and fresh.stores == 1
    assert path.with_name(path.name + ".corrupt").is_file()
    assert again.stats.snapshot() == first.stats.snapshot()


def test_checksum_valid_foreign_object_is_quarantined(tmp_path, cfg):
    """An entry that passes the integrity check but doesn't hold a
    Stats object (foreign writer) is moved aside like corruption."""
    cache = ResultCache(tmp_path)
    key = task_key(_task(cfg))
    path = cache._path(key)
    write_checked_pickle(path, {"not": "stats"})
    assert cache.get(key) is None
    assert cache.quarantined == 1
    assert path.with_name(path.name + ".corrupt").is_file()


# ---------------------------------------------------------------------
# the checksummed on-disk format
# ---------------------------------------------------------------------

def test_checked_pickle_round_trip(tmp_path):
    path = tmp_path / "entry.pkl"
    obj = {"a": [1, 2, 3], "b": "payload"}
    write_checked_pickle(path, obj)
    assert path.read_bytes().startswith(b"RPRC1\n")
    assert read_checked_pickle(path) == obj


def test_checked_pickle_round_trips_stats(tmp_path):
    path = tmp_path / "stats.pkl"
    stats = Stats(4)
    stats.nodes[1].tx_committed = 7
    stats.execution_cycles = 1234
    write_checked_pickle(path, stats)
    clone = read_checked_pickle(path)
    assert isinstance(clone, Stats)
    assert clone.snapshot() == stats.snapshot()


def test_checked_pickle_rejects_bad_magic(tmp_path):
    path = tmp_path / "entry.pkl"
    write_checked_pickle(path, [1, 2])
    data = path.read_bytes()
    path.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(CacheCorruption, match="header"):
        read_checked_pickle(path)


def test_checked_pickle_rejects_flipped_payload_byte(tmp_path):
    path = tmp_path / "entry.pkl"
    write_checked_pickle(path, [1, 2, 3])
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorruption, match="checksum"):
        read_checked_pickle(path)


def test_checked_pickle_missing_file_is_a_plain_miss(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_checked_pickle(tmp_path / "nope.pkl")


def test_quarantine_moves_entry_aside(tmp_path):
    path = tmp_path / "entry.pkl"
    path.write_bytes(b"garbage")
    target = quarantine(path)
    assert target == tmp_path / "entry.pkl.corrupt"
    assert not path.exists() and target.is_file()
    assert target.read_bytes() == b"garbage"  # kept for post-mortem


def test_clear_and_len(tmp_path, cfg):
    cache = ResultCache(tmp_path)
    _run(cache, _task(cfg))
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


# ---------------------------------------------------------------------
# enable/disable policy
# ---------------------------------------------------------------------

def test_repro_no_cache_disables_default(tmp_path, monkeypatch):
    assert cache_enabled()
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert not cache_enabled()
    assert default_cache() is None
    assert resolve_cache(True) is None
    assert resolve_cache("/tmp/somewhere") is None
    assert resolve_cache(ResultCache(tmp_path)) is None


def test_default_store_is_under_the_working_directory(tmp_path,
                                                      monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.chdir(tmp_path)
    assert default_cache().root == Path(".repro-cache")
    assert (default_cache().root.resolve()
            == (tmp_path / ".repro-cache").resolve())


def test_resolve_cache_forms(tmp_path, monkeypatch):
    assert resolve_cache(None) is None
    assert resolve_cache(False) is None
    explicit = ResultCache(tmp_path)
    assert resolve_cache(explicit) is explicit
    from_path = resolve_cache(tmp_path)
    assert isinstance(from_path, ResultCache)
    assert from_path.root == tmp_path
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache(True).root == tmp_path / "env"
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert resolve_cache(explicit) is None
    assert resolve_cache(True) is None


def test_stalled_fault_cell_is_never_stored(tmp_path, cfg):
    """A stall is recomputed on every run and never enters the store;
    a committed fault cell beside it is stored and replayed."""
    tasks = (_task(cfg, faults="delay=0.05,seed=7"),
             _task(cfg, faults="drop=0.3,seed=1"))
    cache = ResultCache(tmp_path)
    committed, stalled = _run(cache, *tasks)
    assert committed.stall is None and stalled.stall is not None
    assert cache.stores == 1 and len(cache) == 1
    warm = ResultCache(tmp_path)
    replayed, again = _run(warm, *tasks)
    assert replayed.cache_hit and not again.cache_hit
    assert warm.hits == 1 and warm.stores == 0 and len(warm) == 1
    assert (replayed.stats.snapshot_digest()
            == committed.stats.snapshot_digest())
    assert again.stall.to_dict() == stalled.stall.to_dict()


def test_lossy_scenario_rerun_recomputes_its_stalls(tmp_path):
    """With the store on, a grid whose every cell stalls recomputes
    them all on a re-run, and the store's entry count stays put."""
    from repro.scenarios import ScenarioSpec, WorkloadDef, run_scenario
    spec = ScenarioSpec(name="lossy-4", nodes=4,
                        workloads=(WorkloadDef("intruder"),
                                   WorkloadDef("kmeans")),
                        schemes=("baseline",), scale=0.1,
                        faults="drop=0.02,seed=7")
    cache = ResultCache(tmp_path)
    cold = run_scenario(spec, cache=cache)
    assert all(r.stall is not None for r in cold.results)
    assert cache.misses == 2 and cache.stores == 0 and len(cache) == 0
    warm = ResultCache(tmp_path)
    rerun = run_scenario(spec, cache=warm)
    assert rerun.cache_hits == 0 and warm.stores == 0 and len(warm) == 0
    assert rerun.snapshot_digests() == cold.snapshot_digests()


def test_cache_false_always_runs(tmp_path, cfg):
    for _ in range(2):
        (r,) = _run(False, _task(cfg))
        assert r.stats.tx_committed > 0
        assert not r.cache_hit
    assert not any(tmp_path.iterdir())


def test_sanitized_run_bypasses_a_warm_store(tmp_path, monkeypatch):
    """A sanitized re-run against a warm store simulates every cell
    under the sanitizer and writes nothing back: a replayed cell would
    check nothing, and a sanitized result must not be stored."""
    from repro.scenarios import ScenarioSpec, WorkloadDef, run_scenario
    spec = ScenarioSpec(name="san-4", nodes=4,
                        workloads=(WorkloadDef("intruder"),),
                        schemes=("baseline", "puno"), scale=0.1)
    cold = run_scenario(spec, cache=tmp_path)
    assert run_scenario(spec, cache=tmp_path).cache_hits == 2
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    cache = ResultCache(tmp_path)
    sanitized = run_scenario(spec, cache=cache)
    assert sanitized.cache_hits == 0
    assert all(r.stats.sanitizer_checks > 0 for r in sanitized.results)
    assert cache.hits == cache.misses == cache.stores == 0
    assert len(cache) == 2
    monkeypatch.delenv("REPRO_SANITIZE")
    warm = run_scenario(spec, cache=cache)
    assert warm.cache_hits == 2
    assert all(r.stats.sanitizer_checks == 0 for r in warm.results)
    assert warm.snapshot_digests() == cold.snapshot_digests()
