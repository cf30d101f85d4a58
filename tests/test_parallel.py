"""Parallel grid execution: serial/parallel equivalence, determinism,
task descriptors, the resilient executor (crash replacement, timeouts,
resume through the result store), and the strict (non-ragged)
SweepResult grid."""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.experiments import paper_spec
from repro.analysis.parallel import (
    SweepExecutionError,
    TaskResult,
    WorkloadSpec,
    resolve_jobs,
    run_task,
    run_tasks_resilient,
    task_key,
)
from repro.analysis.sweep import SweepResult
from repro.scenarios import ScenarioSpec, WorkloadDef, run_scenario
from repro.scenarios.runner import ScenarioResult, scenario_cells, \
    scenario_tasks
from repro.sim.resultcache import ResultCache
from repro.sim.stats import Stats
from repro.sim.watchdog import StallReport

SCHEMES4 = ("baseline", "backoff", "rmw", "puno")


def _spec4(names=("intruder", "kmeans"), schemes=SCHEMES4,
           max_cycles=20_000_000):
    """A 4-node grid at scale 0.1."""
    return ScenarioSpec(name="grid-4", nodes=4,
                        workloads=tuple(WorkloadDef(n) for n in names),
                        schemes=schemes, scale=0.1, max_cycles=max_cycles)


def _run(spec, **kw):
    return run_scenario(spec, **kw)


def _assert_same_cells(a, b):
    assert a.cells == b.cells
    for cell, ra, rb in zip(a.cells, a.results, b.results):
        assert ra.stats.snapshot() == rb.stats.snapshot(), \
            f"runs diverged on {cell}"


# ---------------------------------------------------------------------
# equivalence and determinism
# ---------------------------------------------------------------------

def test_parallel_matches_serial_2x4():
    """jobs=4 must produce bit-identical Stats to jobs=1 on every cell
    of a 2-workload x 4-scheme grid."""
    spec = _spec4()
    _assert_same_cells(_run(spec, jobs=1, cache=False),
                       _run(spec, jobs=4, cache=False))


@pytest.mark.slow
def test_parallel_matches_serial_full_paper_grid():
    """The full 8-workload x 4-scheme paper grid at reduced scale:
    jobs=4 equals the serial run cell for cell."""
    spec = paper_spec(scale=0.05)
    _assert_same_cells(_run(spec, jobs=1, cache=False),
                       _run(spec, jobs=4, cache=False))


def test_serial_reruns_are_deterministic():
    """Two fresh serial runs of the same cell produce identical Stats —
    the property the cache and the parallel layer both rely on."""
    spec = _spec4(names=("intruder",), schemes=("baseline",))
    _assert_same_cells(_run(spec, cache=False), _run(spec, cache=False))


# ---------------------------------------------------------------------
# grid-level cache behaviour
# ---------------------------------------------------------------------

def test_warm_cache_replays_grid_without_simulating(tmp_path):
    spec = _spec4()
    cold = _run(spec, jobs=2, cache=tmp_path)
    assert cold.cache_hits == 0
    # run the same grid with a pool against the warm store: every cell
    # must be a hit and identical, and the runner is never called
    cache = ResultCache(tmp_path)
    results = run_tasks_resilient(scenario_tasks(spec), jobs=2,
                                  cache=cache, runner=_raise_run_task)
    assert all(tr.cache_hit for tr in results)
    assert cache.hits == len(results) and cache.stores == 0
    for tr, cell in zip(results, cold.results):
        assert tr.stats.snapshot() == cell.stats.snapshot()


def test_no_cache_env_defeats_task_cache(tmp_path, monkeypatch):
    spec = _spec4(names=("kmeans",), schemes=("baseline",))
    _run(spec, cache=tmp_path)
    assert _run(spec, cache=tmp_path).cache_hits == 1
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    cache = ResultCache(tmp_path)
    assert _run(spec, cache=cache).cache_hits == 0
    assert cache.hits == cache.stores == 0


# ---------------------------------------------------------------------
# descriptors and plumbing
# ---------------------------------------------------------------------

def test_tasks_are_picklable():
    import pickle
    task = scenario_tasks(_spec4())[0]
    clone = pickle.loads(pickle.dumps(task))
    assert clone == task
    assert clone.spec.build().name == task.workload


def test_workload_spec_builds_synthetic():
    spec = WorkloadSpec("micro", kind="synthetic", num_nodes=4, seed=5,
                        params=(("instances", 3), ("shared_lines", 16),
                                ("tx_reads", 4), ("tx_writes", 1)))
    wl = spec.build()
    assert wl.num_nodes == 4 and wl.total_instances() > 0


def test_workload_spec_unknown_kind():
    with pytest.raises(ValueError):
        WorkloadSpec("x", kind="nope").build()


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(-3) == 1
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1


def test_scenario_tasks_order_is_workload_major():
    tasks = scenario_tasks(_spec4())
    labels = [(t.workload, t.scheme) for t in tasks]
    assert labels[:4] == [("intruder", "baseline"), ("intruder", "backoff"),
                          ("intruder", "rmw"), ("intruder", "puno")]
    assert labels[4][0] == "kmeans"


# ---------------------------------------------------------------------
# the workload memo: WorkloadSpec.build keeps its last build
# ---------------------------------------------------------------------

def _count_builds(monkeypatch, log):
    """Log the pid of every STAMP factory call to the file ``log``;
    forked pool workers inherit the patch and append to the same
    file."""
    import repro.workloads.stamp as stamp
    real = stamp.make_stamp_workload

    def counting(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(stamp, "make_stamp_workload", counting)
    return lambda: log.read_text().split() if log.exists() else []


def test_paper_grid_builds_each_workload_once(tmp_path, monkeypatch):
    """The 8 x 4 paper grid runs workload-major, so one kept build
    serves all four schemes of a row: 8 factory calls, not 32."""
    builds = _count_builds(monkeypatch, tmp_path / "builds")
    spec = paper_spec(scale=0.02)
    results = run_tasks_resilient(scenario_tasks(spec), jobs=1,
                                  cache=False)
    assert len(results) == 32
    assert all(r.stats.tx_committed > 0 for r in results)
    assert len(builds()) == len(spec.workloads) == 8


def test_pool_workers_build_each_workload_at_most_once(tmp_path,
                                                       monkeypatch):
    """A worker takes cells in submission order, so on a 3 x 9
    tournament grid it builds each of the 3 workloads at most once."""
    from repro.schemes.tournament import tournament_spec
    builds = _count_builds(monkeypatch, tmp_path / "builds")
    spec = tournament_spec(nodes=4, scale=0.02,
                           workloads=("intruder", "vacation",
                                      "labyrinth"))
    results = run_tasks_resilient(scenario_tasks(spec), jobs=2,
                                  cache=False)
    assert len(results) == 27
    per_worker = Counter(builds())
    assert str(os.getpid()) not in per_worker
    assert 3 <= sum(per_worker.values()) <= 3 * len(per_worker)
    assert max(per_worker.values()) <= 3


def test_build_keeps_one_workload(tmp_path, monkeypatch):
    """A, A, B, A: the repeat is served, B evicts A, and the rebuilt A
    is a new object with the same content."""
    from repro.sim.resultcache import workload_fingerprint
    builds = _count_builds(monkeypatch, tmp_path / "builds")
    a = WorkloadSpec("kmeans", num_nodes=4, scale=0.1)
    b = WorkloadSpec("kmeans", num_nodes=4, scale=0.1, seed=1)
    first = a.build()
    assert a.build() is first
    assert len(builds()) == 1
    b.build()
    again = a.build()
    assert len(builds()) == 3
    assert again is not first
    assert workload_fingerprint(again) == workload_fingerprint(first)


def test_a_run_never_writes_into_its_workload():
    """Sharing one build across cells is sound only while no run
    mutates it: every registered scheme and a fault cell, each with
    aborts (so re-executions), leave the kept workload's fingerprint as
    it was."""
    from repro.schemes.tournament import tournament_spec
    from repro.sim.resultcache import workload_fingerprint
    tasks = scenario_tasks(tournament_spec(workloads=("intruder",)))
    tasks.append(replace(tasks[0], faults="dup=0.02,delay=0.05,seed=7"))
    assert len(tasks) == 10
    workload = tasks[0].spec.build()
    before = workload_fingerprint(workload)
    for task in tasks:
        result = run_task(task)
        assert result.stall is None and result.stats.tx_aborted > 0
        assert task.spec.build() is workload
        assert workload_fingerprint(workload) == before, task.scheme


# ---------------------------------------------------------------------
# resilient execution: crash replacement, timeouts, deterministic errors
# ---------------------------------------------------------------------

# Fault-simulating runners for the resilient executor.  They must be
# module-level (they cross the pickle boundary into pool workers), and
# every test that uses a crashing/hanging runner needs >= 2 tasks AND
# jobs >= 2: with a single pending cell the executor runs in-process,
# where os._exit would take pytest down with it.

_CRASH_FLAG_ENV = "REPRO_TEST_CRASH_DIR"


def _tasks2(max_cycles=20_000_000):
    return scenario_tasks(_spec4(names=("intruder",),
                                 schemes=("baseline", "backoff"),
                                 max_cycles=max_cycles))


def _crashy_run_task(task):
    """Dies hard (os._exit) the first time each cell is attempted;
    marker files in $REPRO_TEST_CRASH_DIR persist across workers."""
    marker = (Path(os.environ[_CRASH_FLAG_ENV])
              / f"{task.workload}-{task.scheme}.crashed")
    if not marker.exists():
        marker.write_bytes(b"x")
        os._exit(137)
    return run_task(task)


def _sleepy_run_task(task):
    time.sleep(60)
    return run_task(task)  # pragma: no cover - the pool is torn down


def _raise_run_task(task):
    raise ValueError(f"deterministic failure on {task.scheme}")


def test_resilient_matches_plain_runner():
    """The pool path returns, in input order, what calling the plain
    runner on each cell in-process returns."""
    tasks = _tasks2()
    plain = [run_task(t) for t in tasks]
    resilient = run_tasks_resilient(tasks, jobs=2, cache=False)
    assert [(r.workload, r.scheme) for r in resilient] \
        == [(t.workload, t.scheme) for t in tasks]
    for a, b in zip(plain, resilient):
        assert a.stats.snapshot() == b.stats.snapshot()


def test_killed_worker_is_retried_to_completion(tmp_path, monkeypatch):
    monkeypatch.setenv(_CRASH_FLAG_ENV, str(tmp_path))
    tasks = _tasks2()
    results = run_tasks_resilient(tasks, jobs=2, retries=3,
                                  cache=False,
                                  runner=_crashy_run_task)
    assert all(r is not None for r in results)
    assert all(r.stats.tx_committed > 0 for r in results)
    # every cell really did crash once before completing
    assert len(list(tmp_path.glob("*.crashed"))) == len(tasks)


def test_stuck_pool_times_out_with_structured_error():
    with pytest.raises(SweepExecutionError, match="no completion within"):
        run_tasks_resilient(_tasks2(), jobs=2, retries=0,
                            task_timeout=0.5, cache=False,
                            runner=_sleepy_run_task)


def test_deterministic_worker_error_is_not_retried():
    with pytest.raises(SweepExecutionError, match="not retried"):
        run_tasks_resilient(_tasks2(), jobs=2, retries=5,
                            cache=False, runner=_raise_run_task)


def test_serial_raising_cell_fails_the_sweep_by_name():
    """In-process, a raising cell fails the sweep with the same error a
    pool worker's would, naming the cell, original exception chained."""
    with pytest.raises(SweepExecutionError,
                       match="'intruder'/'baseline'") as info:
        run_tasks_resilient(_tasks2(), jobs=1, cache=False,
                            runner=_raise_run_task)
    assert isinstance(info.value.__cause__, ValueError)


def test_crash_exhaustion_names_the_failed_cells(tmp_path, monkeypatch):
    """retries=0 means a first-attempt crash is already exhaustion."""
    monkeypatch.setenv(_CRASH_FLAG_ENV, str(tmp_path))
    with pytest.raises(SweepExecutionError, match="after 1 attempt"):
        run_tasks_resilient(_tasks2(), jobs=2, retries=0,
                            cache=False, runner=_crashy_run_task)


# ---------------------------------------------------------------------
# fault cells: a stall is a result, not an error
# ---------------------------------------------------------------------

def _lossy_spec():
    """Message loss wedges every cell of this grid: baseline deadlocks,
    PUNO's timers keep the heap alive until no-progress fires."""
    return replace(_spec4(schemes=("baseline", "puno")),
                   faults="drop=0.02,seed=7")


def _stall_view(result):
    return (result.stall.to_dict(), result.faults, result.end_cycle,
            result.stats.snapshot_digest())


def test_lossy_scenario_stalls_identically_serial_and_parallel():
    """Stalled cells come back as results through run_scenario, and the
    StallReport survives the pickle boundary: jobs=2 equals jobs=1 in
    stall kind and cycle, injector summary and partial Stats."""
    spec = _lossy_spec()
    serial = _run(spec, jobs=1, cache=False)
    parallel = _run(spec, jobs=2, cache=False)
    assert serial.cells == parallel.cells
    assert all(r.stall is not None for r in serial.results)
    assert {r.stall.kind for r in serial.results} \
        == {"deadlock", "no-progress"}
    assert all(r.faults["dropped"] > 0 for r in serial.results)
    assert [_stall_view(r) for r in serial.results] \
        == [_stall_view(r) for r in parallel.results]


def test_stalled_cells_reach_the_manifest(tmp_path):
    result = _run(_lossy_spec(), cache=False)
    doc = json.loads(result.write_manifest(tmp_path).read_text())
    for cell, r in zip(doc["cells"], result.results):
        assert cell["stall"] == r.stall.to_dict()
    assert "stall" in result.render_text()


def _cell(scheme, cycles, stalled):
    stats = Stats(4)
    stats.execution_cycles = cycles
    stats.flit_router_traversals = 10 * cycles
    stall = StallReport(kind="deadlock", cycle=cycles, detail="",
                        nodes_done=0, num_nodes=4, commits=0, aborts=0,
                        window_nacks=0, live_events=0) if stalled else None
    return TaskResult("w", scheme, stats, 0.0, False, stall=stall)


def test_render_prints_no_ratio_against_a_stall():
    """A ratio reads '-' when its cell or its base cell stalled; only a
    committed cell over a committed base gets a number."""
    spec = replace(_spec4(names=("intruder", "kmeans", "labyrinth"),
                          schemes=("baseline", "puno")),
                   faults="drop=0.02,seed=7")
    stalls = {"intruder": (True, False), "kmeans": (False, True),
              "labyrinth": (False, False)}
    results = [_cell(scheme, 1000 * (i + 1), stalls[wl][i])
               for wl in ("intruder", "kmeans", "labyrinth")
               for i, scheme in enumerate(("baseline", "puno"))]
    text = ScenarioResult(spec, scenario_cells(spec), results).render_text()
    rows = [line.split() for line in text.splitlines()[3:]]
    ratios = {(r[0], r[2]): (r[6], r[7]) for r in rows}
    assert ratios == {
        ("intruder", "baseline"): ("-", "-"),
        ("intruder", "puno"): ("-", "-"),
        ("kmeans", "baseline"): ("1.000", "1.000"),
        ("kmeans", "puno"): ("-", "-"),
        ("labyrinth", "baseline"): ("1.000", "1.000"),
        ("labyrinth", "puno"): ("2.000", "2.000"),
    }


# ---------------------------------------------------------------------
# resume: a re-run against the result store
# ---------------------------------------------------------------------

def _entry(root, task):
    key = task_key(task)
    return root / key[:2] / f"{key}.pkl"


def test_checkpoint_stores_every_cell_and_resumes_for_free(tmp_path):
    """The store is the sweep's checkpoint: a cold run stores every
    cell, and a re-run replays every cell without calling the runner
    (which would raise)."""
    tasks = _tasks2()
    cache = ResultCache(tmp_path)
    first = run_tasks_resilient(tasks, jobs=1, cache=cache)
    assert cache.stores == len(tasks)
    assert len(cache) == len(tasks)
    assert not any(r.cache_hit for r in first)

    cache2 = ResultCache(tmp_path)
    second = run_tasks_resilient(tasks, jobs=1, cache=cache2,
                                 runner=_raise_run_task)
    assert cache2.hits == len(tasks) and cache2.stores == 0
    assert all(r.cache_hit for r in second)
    for a, b in zip(first, second):
        assert a.stats.snapshot() == b.stats.snapshot()


def test_resume_recomputes_only_the_missing_cell(tmp_path):
    tasks = _tasks2()
    run_tasks_resilient(tasks, jobs=1, cache=ResultCache(tmp_path))
    _entry(tmp_path, tasks[0]).unlink()

    calls = []

    def counting_runner(task):  # jobs=1 stays in-process: closures OK
        calls.append((task.workload, task.scheme))
        return run_task(task)

    cache = ResultCache(tmp_path)
    results = run_tasks_resilient(tasks, jobs=1, cache=cache,
                                  runner=counting_runner)
    assert calls == [(tasks[0].workload, tasks[0].scheme)]
    assert cache.hits == len(tasks) - 1 and cache.stores == 1
    assert [r.cache_hit for r in results] == [False, True]


def test_pool_rerun_stores_only_the_missing_cells(tmp_path):
    """Resume through the process pool: the parent stores what the
    workers compute, and a warm re-run then replays the whole grid."""
    tasks = scenario_tasks(_spec4(names=("intruder",)))
    run_tasks_resilient(tasks[:2], jobs=2, cache=ResultCache(tmp_path))
    cache = ResultCache(tmp_path)
    results = run_tasks_resilient(tasks, jobs=2, cache=cache)
    assert cache.hits == 2 and cache.stores == len(tasks) - 2
    assert [r.cache_hit for r in results] == [True, True, False, False]
    warm = ResultCache(tmp_path)
    run_tasks_resilient(tasks, jobs=2, cache=warm, runner=_raise_run_task)
    assert warm.hits == len(tasks) and warm.stores == 0


def test_corrupt_checkpoint_cell_is_quarantined_and_recomputed(tmp_path):
    tasks = _tasks2()
    run_tasks_resilient(tasks, jobs=1, cache=ResultCache(tmp_path))
    victim = _entry(tmp_path, tasks[1])
    victim.write_bytes(b"bit rot")

    cache = ResultCache(tmp_path)
    results = run_tasks_resilient(tasks, jobs=1, cache=cache)
    assert cache.quarantined == 1
    assert cache.hits == len(tasks) - 1 and cache.stores == 1
    assert victim.with_name(victim.name + ".corrupt").is_file()
    assert all(r is not None for r in results)


def test_task_key_is_stable_and_sensitive():
    a, b = _tasks2()
    assert task_key(a) == task_key(a)
    assert task_key(a) != task_key(b)  # scheme differs
    shorter = _tasks2(max_cycles=10_000_000)[0]
    assert task_key(a) != task_key(shorter)


def test_resolve_checkpoint_forms(tmp_path, monkeypatch):
    """The resilient runner's checkpoint is its ``cache`` argument, and
    every form of it lands where it says: an explicit store is the one
    used, a path is a store rooted there, ``True`` follows
    REPRO_CACHE_DIR, and ``False``/``None`` store nothing."""
    task = _tasks2()[:1]
    explicit = ResultCache(tmp_path / "explicit")
    run_tasks_resilient(task, jobs=1, cache=explicit)
    assert explicit.stores == 1 and len(explicit) == 1
    assert _entry(explicit.root, task[0]).is_file()

    run_tasks_resilient(task, jobs=1, cache=tmp_path / "path")
    assert _entry(tmp_path / "path", task[0]).is_file()

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    for off in (False, None):
        [result] = run_tasks_resilient(task, jobs=1, cache=off)
        assert not result.cache_hit
    assert not (tmp_path / "env").exists()
    run_tasks_resilient(task, jobs=1, cache=True)
    assert _entry(tmp_path / "env", task[0]).is_file()
    [warm] = run_tasks_resilient(task, jobs=1, cache=True,
                                 runner=_raise_run_task)
    assert warm.cache_hit


def test_scheme_sweep_checkpoint_round_trip(tmp_path):
    """A scheme sweep run through run_scenario stores its cell, and a
    second run replays it from disk unchanged."""
    spec = _spec4(names=("intruder",), schemes=("baseline",))
    cold = run_scenario(spec, jobs=1, cache=tmp_path)
    cache = ResultCache(tmp_path)
    warm = run_scenario(spec, jobs=1, cache=cache)
    assert cache.hits == 1 and cache.stores == 0
    assert warm.cache_hits == 1
    _assert_same_cells(cold, warm)


# ---------------------------------------------------------------------
# strict SweepResult grid
# ---------------------------------------------------------------------

def test_sweepresult_rejects_duplicate_cell():
    r = SweepResult()
    r.add("wl", "baseline", Stats(4))
    with pytest.raises(ValueError, match="duplicate"):
        r.add("wl", "baseline", Stats(4))


def test_sweepresult_rejects_ragged_grid():
    r = SweepResult()
    a, b = Stats(4), Stats(4)
    a.execution_cycles = b.execution_cycles = 100
    r.add("wl1", "baseline", a)
    r.add("wl1", "puno", b)
    r.add("wl2", "baseline", a)  # wl2 is missing "puno"
    with pytest.raises(ValueError, match="missing"):
        r.table("exec")
    with pytest.raises(ValueError, match="missing"):
        r.normalized("exec")


def test_sweepresult_complete_grid_builds_table():
    r = SweepResult()
    for wl in ("wl1", "wl2"):
        for scheme in ("baseline", "puno"):
            s = Stats(4)
            s.execution_cycles = 100
            r.add(wl, scheme, s)
    t = r.table("exec")
    assert t.get("wl2", "puno") == 100
