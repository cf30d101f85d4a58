"""Parallel grid execution: serial/parallel equivalence, determinism,
task descriptors, the resilient executor (crash replacement, timeouts,
checkpoint/resume), and the strict (non-ragged) SweepResult grid."""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import paper_spec
from repro.analysis.parallel import (
    ENV_CHECKPOINT,
    SweepCheckpoint,
    SweepExecutionError,
    WorkloadSpec,
    resolve_checkpoint,
    resolve_jobs,
    run_task,
    run_tasks,
    run_tasks_resilient,
    task_key,
)
from repro.analysis.sweep import SweepResult
from repro.scenarios import ScenarioSpec, WorkloadDef, run_scenario
from repro.scenarios.runner import scenario_tasks
from repro.sim.stats import Stats

SCHEMES4 = ("baseline", "backoff", "rmw", "puno")


def _spec4(names=("intruder", "kmeans"), schemes=SCHEMES4,
           max_cycles=20_000_000):
    """A 4-node grid at scale 0.1."""
    return ScenarioSpec(name="grid-4", nodes=4,
                        workloads=tuple(WorkloadDef(n) for n in names),
                        schemes=schemes, scale=0.1, max_cycles=max_cycles)


def _run(spec, **kw):
    return run_scenario(spec, checkpoint=False, **kw)


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
    cold = _run(spec, cache=tmp_path)
    # run the same grid through the process pool against the warm
    # cache: every cell must be a hit and identical
    results = run_tasks(scenario_tasks(spec, cache=tmp_path), jobs=2)
    assert all(tr.cache_hit for tr in results)
    for tr, cell in zip(results, cold.results):
        assert tr.stats.snapshot() == cell.stats.snapshot()


def test_no_cache_env_defeats_task_cache(tmp_path, monkeypatch):
    spec = _spec4(names=("kmeans",))
    _run(spec, cache=tmp_path)
    task = scenario_tasks(spec, cache=tmp_path)[0]
    assert task.use_cache
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert not run_task(task).cache_hit


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
    tasks = _tasks2()
    plain = run_tasks(tasks, jobs=2)
    resilient = run_tasks_resilient(tasks, jobs=2, checkpoint=False)
    assert [(r.workload, r.scheme) for r in resilient] \
        == [(t.workload, t.scheme) for t in tasks]
    for a, b in zip(plain, resilient):
        assert a.stats.snapshot() == b.stats.snapshot()


def test_killed_worker_is_retried_to_completion(tmp_path, monkeypatch):
    monkeypatch.setenv(_CRASH_FLAG_ENV, str(tmp_path))
    tasks = _tasks2()
    results = run_tasks_resilient(tasks, jobs=2, retries=3,
                                  checkpoint=False,
                                  runner=_crashy_run_task)
    assert all(r is not None for r in results)
    assert all(r.stats.tx_committed > 0 for r in results)
    # every cell really did crash once before completing
    assert len(list(tmp_path.glob("*.crashed"))) == len(tasks)


def test_stuck_pool_times_out_with_structured_error():
    with pytest.raises(SweepExecutionError, match="no completion within"):
        run_tasks_resilient(_tasks2(), jobs=2, retries=0,
                            task_timeout=0.5, checkpoint=False,
                            runner=_sleepy_run_task)


def test_deterministic_worker_error_is_not_retried():
    with pytest.raises(SweepExecutionError, match="not retried"):
        run_tasks_resilient(_tasks2(), jobs=2, retries=5,
                            checkpoint=False, runner=_raise_run_task)


def test_crash_exhaustion_names_the_failed_cells(tmp_path, monkeypatch):
    """retries=0 means a first-attempt crash is already exhaustion."""
    monkeypatch.setenv(_CRASH_FLAG_ENV, str(tmp_path))
    with pytest.raises(SweepExecutionError, match="after 1 attempt"):
        run_tasks_resilient(_tasks2(), jobs=2, retries=0,
                            checkpoint=False, runner=_crashy_run_task)


# ---------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------

def test_checkpoint_stores_every_cell_and_resumes_for_free(tmp_path):
    tasks = _tasks2()
    cp = SweepCheckpoint(tmp_path)
    first = run_tasks_resilient(tasks, jobs=1, checkpoint=cp)
    assert cp.stores == len(tasks)
    assert len(cp) == len(tasks)

    # full resume: every cell replays from disk; the runner (which
    # would raise) is never invoked
    cp2 = SweepCheckpoint(tmp_path)
    second = run_tasks_resilient(tasks, jobs=1, checkpoint=cp2,
                                 runner=_raise_run_task)
    assert cp2.hits == len(tasks) and cp2.stores == 0
    for a, b in zip(first, second):
        assert a.stats.snapshot() == b.stats.snapshot()


def test_resume_recomputes_only_the_missing_cell(tmp_path):
    tasks = _tasks2()
    run_tasks_resilient(tasks, jobs=1, checkpoint=SweepCheckpoint(tmp_path))
    victim = tmp_path / f"{task_key(tasks[0])}.pkl"
    victim.unlink()

    calls = []

    def counting_runner(task):  # jobs=1 stays in-process: closures OK
        calls.append((task.workload, task.scheme))
        return run_task(task)

    cp = SweepCheckpoint(tmp_path)
    results = run_tasks_resilient(tasks, jobs=1, checkpoint=cp,
                                  runner=counting_runner)
    assert calls == [(tasks[0].workload, tasks[0].scheme)]
    assert cp.hits == len(tasks) - 1 and cp.stores == 1
    assert all(r is not None for r in results)


def test_corrupt_checkpoint_cell_is_quarantined_and_recomputed(tmp_path):
    tasks = _tasks2()
    run_tasks_resilient(tasks, jobs=1, checkpoint=SweepCheckpoint(tmp_path))
    victim = tmp_path / f"{task_key(tasks[1])}.pkl"
    victim.write_bytes(b"bit rot")

    cp = SweepCheckpoint(tmp_path)
    results = run_tasks_resilient(tasks, jobs=1, checkpoint=cp)
    assert cp.quarantined == 1
    assert cp.hits == len(tasks) - 1 and cp.stores == 1
    assert victim.with_name(victim.name + ".corrupt").is_file()
    assert all(r is not None for r in results)


def test_task_key_is_stable_and_sensitive():
    a, b = _tasks2()
    assert task_key(a) == task_key(a)
    assert task_key(a) != task_key(b)  # scheme differs
    shorter = _tasks2(max_cycles=10_000_000)[0]
    assert task_key(a) != task_key(shorter)


def test_resolve_checkpoint_forms(tmp_path, monkeypatch):
    cp = SweepCheckpoint(tmp_path)
    assert resolve_checkpoint(cp) is cp
    assert resolve_checkpoint(False) is None
    monkeypatch.delenv(ENV_CHECKPOINT, raising=False)
    assert resolve_checkpoint(None) is None
    monkeypatch.setenv(ENV_CHECKPOINT, str(tmp_path / "env"))
    from_env = resolve_checkpoint(None)
    assert isinstance(from_env, SweepCheckpoint)
    assert from_env.root == tmp_path / "env"
    from_path = resolve_checkpoint(tmp_path)
    assert isinstance(from_path, SweepCheckpoint)
    assert from_path.root == tmp_path


def test_scheme_sweep_checkpoint_round_trip(tmp_path):
    """A scheme sweep run through run_scenario stores its cell in the
    checkpoint and a second run replays it from disk unchanged."""
    spec = _spec4(names=("intruder",), schemes=("baseline",))
    cold = run_scenario(spec, jobs=1, cache=False,
                        checkpoint=SweepCheckpoint(tmp_path))
    cp = SweepCheckpoint(tmp_path)
    warm = run_scenario(spec, jobs=1, cache=False, checkpoint=cp)
    assert cp.hits == 1 and cp.stores == 0
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
