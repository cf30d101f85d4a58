"""Process-pool sweep execution.

Every cell of an evaluation grid (one workload under one scheme) is an
independent simulation, so a sweep is embarrassingly parallel.  This
module runs grids across a :mod:`multiprocessing` pool driven by
*picklable task descriptors* — a :class:`WorkloadSpec` naming how to
rebuild the workload (name / scale / seed / node count) plus the scheme
name and frozen :class:`~repro.sim.config.SystemConfig` — never live
``Workload`` or ``System`` objects.  Each worker rebuilds its workload
from the spec, consults the on-disk result cache
(:mod:`repro.sim.resultcache`), simulates on a miss, and ships the
:class:`~repro.sim.stats.Stats` back.

Results are assembled in task-submission order (``Pool.map`` preserves
it), so a parallel sweep is bit-identical to the serial path: same
per-cell Stats, same grid iteration order, independent of worker
scheduling.

Resilient execution
-------------------

:func:`run_tasks_resilient` adds the orchestration-level robustness a
multi-hour sweep needs (Issue 4, Level 2):

* **crashed-worker replacement** — workers run under a
  ``concurrent.futures.ProcessPoolExecutor`` (which detects worker
  death as ``BrokenProcessPool``, where a bare ``Pool.map`` would hang
  on the dead worker's in-flight tasks); the pool is recreated and the
  lost cells resubmitted;
* **bounded retry with exponential backoff** — only *crashes* and
  *timeouts* are retried (a worker that raises an ordinary exception is
  deterministic — the same inputs will raise again — so it fails fast
  as :class:`SweepExecutionError`);
* **progress timeouts** — if no task completes for ``task_timeout``
  seconds the whole pool is considered stuck, its processes are
  terminated, and the unfinished cells retried;
* **checkpointing** — completed cells are persisted to a
  :class:`SweepCheckpoint` (checksummed, content-keyed like the result
  cache), so an interrupted sweep resumed with ``--resume`` recomputes
  only the missing cells.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.sim.config import SystemConfig
from repro.sim.resultcache import CacheCorruption, ResultCache, \
    cache_enabled, cached_run_workload, config_fingerprint, quarantine, \
    read_checked_pickle, source_digest, write_checked_pickle
from repro.sim.stats import Stats
from repro.workloads.base import Workload

# Sweep checkpoint directory; set (e.g. by ``--resume``) so nested
# grid runs — the experiment harnesses run their own scenarios — pick
# up checkpointing without plumbing.
ENV_CHECKPOINT = "REPRO_SWEEP_CHECKPOINT"


@dataclass(frozen=True)
class WorkloadSpec:
    """A picklable recipe for rebuilding one workload in a worker.

    ``kind`` selects the factory: ``"stamp"`` (the eight paper
    analogues, parameterized by ``scale``/``seed``), ``"synthetic"``
    (the contention microbenchmark), or any registered scenario family
    name from :data:`repro.workloads.families.FAMILIES` (``hotspot``,
    ``prodcons``, ``zipf``, ``rw_mix``).  Extra keyword arguments
    travel in ``params`` as a tuple of items so the spec stays
    hashable.
    """

    name: str
    kind: str = "stamp"
    num_nodes: int = 16
    scale: float = 1.0
    seed: int = 0
    params: Tuple[Tuple[str, object], ...] = ()

    def build(self) -> Workload:
        if self.kind == "stamp":
            from repro.workloads.stamp import make_stamp_workload
            return make_stamp_workload(self.name, num_nodes=self.num_nodes,
                                       scale=self.scale, seed=self.seed)
        if self.kind == "synthetic":
            from repro.workloads.synthetic import make_synthetic_workload
            kwargs = dict(self.params)
            kwargs.setdefault("name", self.name)
            return make_synthetic_workload(num_nodes=self.num_nodes,
                                           seed=self.seed, **kwargs)
        from repro.workloads.families import FAMILIES, make_family_workload
        if self.kind in FAMILIES:
            kwargs = dict(self.params)
            kwargs.setdefault("name", self.name)
            return make_family_workload(self.kind,
                                        num_nodes=self.num_nodes,
                                        scale=self.scale, seed=self.seed,
                                        **kwargs)
        raise ValueError(f"unknown workload kind {self.kind!r}")


@dataclass(frozen=True)
class SweepTask:
    """One grid cell: simulate ``spec`` under scheme ``scheme`` with
    ``config``.

    ``workload``/``scheme`` are the row/column labels the result is
    filed under; everything here pickles cleanly across process
    boundaries.
    """

    workload: str
    scheme: str
    config: SystemConfig
    spec: WorkloadSpec
    max_cycles: Optional[int] = None
    audit: bool = True
    use_cache: bool = True
    cache_dir: Optional[str] = None
    # Optional parse_fault_spec string (scenario fault profiles).  A
    # fault cell always simulates — the result cache key does not cover
    # fault configurations — and runs with the engine watchdog armed.
    faults: str = ""


@dataclass
class TaskResult:
    """What a worker ships back for one cell."""

    workload: str
    scheme: str
    stats: Stats
    wall_seconds: float
    cache_hit: bool


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request: None/0 -> all cores, floor 1."""
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def run_task(task: SweepTask) -> TaskResult:
    """Execute one cell (worker entry point; must stay module-level
    so it pickles under every multiprocessing start method)."""
    workload = task.spec.build()
    if task.faults:
        return _run_fault_task(task, workload)
    cache: object = False
    if task.use_cache and cache_enabled():
        cache = ResultCache(task.cache_dir)
    t0 = time.perf_counter()
    result = cached_run_workload(task.config, workload, cm=task.scheme,
                                 max_cycles=task.max_cycles,
                                 audit=task.audit, cache=cache)
    wall = time.perf_counter() - t0
    return TaskResult(task.workload, task.scheme, result.stats, wall,
                      bool(result.extras.get("cache_hit")))


def _run_fault_task(task: SweepTask, workload: Workload) -> TaskResult:
    """One cell under an injected fault profile: never cached, engine
    watchdog armed, audits only when the mix preserves their
    assumptions (no drop/reorder)."""
    from repro.analysis.chaos import audits_safe
    from repro.faults import parse_fault_spec
    from repro.system import run_workload
    faults = parse_fault_spec(task.faults)
    faults.validate()
    t0 = time.perf_counter()
    result = run_workload(task.config, workload, cm=task.scheme,
                          max_cycles=task.max_cycles,
                          audit=task.audit and audits_safe(faults),
                          faults=faults, watchdog=True)
    wall = time.perf_counter() - t0
    return TaskResult(task.workload, task.scheme, result.stats, wall,
                      False)


def _pool_context():
    """Prefer fork (cheap, POSIX) and fall back to the default."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_tasks(tasks: Iterable[SweepTask],
              jobs: Optional[int] = None) -> List[TaskResult]:
    """Run tasks across ``jobs`` worker processes, results in input
    order.

    ``jobs <= 1`` (after resolution) executes in-process — the same
    code path the workers run, so serial and parallel sweeps differ
    only in scheduling.  A worker that raises propagates the exception
    to the caller; no partial grid is returned.
    """
    task_list = list(tasks)
    n = resolve_jobs(jobs)
    if n <= 1 or len(task_list) <= 1:
        return [run_task(t) for t in task_list]
    ctx = _pool_context()
    with ctx.Pool(processes=min(n, len(task_list))) as pool:
        return pool.map(run_task, task_list)


# ---------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------

def task_key(task: SweepTask) -> str:
    """Content address of one sweep cell for checkpointing.

    Includes the package-source digest, so a checkpoint directory can
    never resume stale results across a code change — the same
    self-invalidation contract as the result cache.
    """
    h = hashlib.sha256()
    h.update(source_digest().encode())
    h.update(task.workload.encode())
    h.update(task.scheme.encode())
    h.update(config_fingerprint(task.config).encode())
    h.update(repr(task.spec).encode())
    h.update(repr((task.max_cycles, task.audit, task.faults)).encode())
    return h.hexdigest()


class SweepCheckpoint:
    """Per-cell persistent store of completed :class:`TaskResult`.

    Entries share the checksummed on-disk format of the result cache:
    corrupt/truncated entries are quarantined to ``*.corrupt`` and
    treated as missing, never raised mid-sweep.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.stores = 0
        self.quarantined = 0

    def _path(self, task: SweepTask) -> Path:
        return self.root / f"{task_key(task)}.pkl"

    def get(self, task: SweepTask) -> Optional[TaskResult]:
        path = self._path(task)
        try:
            result = read_checked_pickle(path)
        except FileNotFoundError:
            return None
        except CacheCorruption:
            quarantine(path)
            self.quarantined += 1
            return None
        if not isinstance(result, TaskResult):
            quarantine(path)
            self.quarantined += 1
            return None
        self.hits += 1
        return result

    def put(self, task: SweepTask, result: TaskResult) -> None:
        result.stats.tracer = None  # never persist tracers
        write_checked_pickle(self._path(task), result)
        self.stores += 1

    def clear(self) -> int:
        n = 0
        if self.root.is_dir():
            for p in self.root.glob("*.pkl"):
                try:
                    p.unlink()
                    n += 1
                except OSError:
                    continue
        return n

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SweepCheckpoint({str(self.root)!r}, hits={self.hits}, "
                f"stores={self.stores}, quarantined={self.quarantined})")


def default_checkpoint() -> Optional[SweepCheckpoint]:
    """The env-configured checkpoint store, or None when unset."""
    root = os.environ.get(ENV_CHECKPOINT, "")
    if not root:
        return None
    return SweepCheckpoint(root)


def resolve_checkpoint(checkpoint) -> Optional[SweepCheckpoint]:
    """Normalize the ``checkpoint=`` argument: an explicit
    :class:`SweepCheckpoint` or path is used as-is, ``None`` defers to
    the ``REPRO_SWEEP_CHECKPOINT`` environment variable, ``False``
    disables checkpointing unconditionally."""
    if isinstance(checkpoint, SweepCheckpoint):
        return checkpoint
    if checkpoint is False:
        return None
    if checkpoint is None:
        return default_checkpoint()
    return SweepCheckpoint(checkpoint)


# ---------------------------------------------------------------------
# resilient execution
# ---------------------------------------------------------------------

class SweepExecutionError(RuntimeError):
    """A sweep cell failed permanently: retries exhausted on a
    crash/timeout, or a worker raised a deterministic exception."""


def _run_one_checkpointed(task: SweepTask, cp: Optional[SweepCheckpoint],
                          runner: Callable[[SweepTask], TaskResult]
                          ) -> TaskResult:
    result = runner(task)
    if cp is not None:
        cp.put(task, result)
    return result


def _shutdown_pool(ex: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on stuck or dead workers."""
    procs = getattr(ex, "_processes", None)
    if procs:
        for proc in list(procs.values()):
            proc.terminate()
    ex.shutdown(wait=False, cancel_futures=True)


def _run_round(task_list: List[SweepTask], pending: List[int],
               workers: int, task_timeout: Optional[float],
               runner: Callable[[SweepTask], TaskResult]
               ) -> Tuple[Dict[int, TaskResult], Dict[int, str]]:
    """One pool generation: submit every pending cell, harvest what
    completes, classify crashes and stalls.  Returns ``(completed,
    failed)`` keyed by task index; a deterministic worker exception
    raises :class:`SweepExecutionError` immediately (no retry)."""
    ctx = _pool_context()
    ex = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
    completed: Dict[int, TaskResult] = {}
    failed: Dict[int, str] = {}
    futures = {}
    for i in pending:
        futures[ex.submit(runner, task_list[i])] = i
    outstanding = set(futures)
    try:
        while outstanding:
            done, outstanding = futures_wait(
                outstanding, timeout=task_timeout,
                return_when=FIRST_COMPLETED)
            if not done:
                # nothing finished inside the window: the pool is stuck
                # (iterate the submission-ordered dict, not the set)
                for f, i in futures.items():
                    if f in outstanding:
                        failed[i] = (
                            f"no completion within {task_timeout}s "
                            f"(worker stuck); pool terminated")
                break
            for f in done:
                i = futures[f]
                try:
                    completed[i] = f.result()
                except BrokenProcessPool:
                    failed[i] = "worker process died (BrokenProcessPool)"
                except Exception as exc:
                    task = task_list[i]
                    raise SweepExecutionError(
                        f"sweep cell {task.workload!r}/{task.scheme!r} "
                        f"raised {exc!r}; deterministic worker errors "
                        f"are not retried") from exc
    finally:
        _shutdown_pool(ex)
    return completed, failed


def run_tasks_resilient(tasks: Iterable[SweepTask],
                        jobs: Optional[int] = None,
                        retries: int = 2,
                        task_timeout: Optional[float] = None,
                        backoff_base: float = 0.25,
                        backoff_cap: float = 8.0,
                        checkpoint=None,
                        runner: Callable[[SweepTask], TaskResult] = run_task
                        ) -> List[TaskResult]:
    """:func:`run_tasks` with crash replacement, bounded retry and
    checkpointing.  Results come back in input order, exactly like the
    plain runner.

    Crashed workers and stuck pools are retried up to ``retries``
    times with exponential backoff (``backoff_base * 2**round``,
    capped); exhaustion raises :class:`SweepExecutionError` naming the
    failed cells.  ``checkpoint`` accepts a :class:`SweepCheckpoint`,
    a directory path, ``False`` (off) or ``None`` (defer to
    ``REPRO_SWEEP_CHECKPOINT``); previously checkpointed cells are
    returned without re-running, so a resumed sweep recomputes only
    what is missing.  ``runner`` is the per-cell entry point and must
    stay a module-level function (it crosses the pickle boundary).
    """
    task_list = list(tasks)
    cp = resolve_checkpoint(checkpoint)
    results: List[Optional[TaskResult]] = [None] * len(task_list)
    pending: List[int] = []
    for i, task in enumerate(task_list):
        prior = cp.get(task) if cp is not None else None
        if prior is not None:
            results[i] = prior
        else:
            pending.append(i)
    if not pending:
        return results
    n = resolve_jobs(jobs)
    if n <= 1 or len(pending) <= 1:
        # in-process path: a crash here is a crash of the caller, so
        # only checkpointing applies
        for i in pending:
            results[i] = _run_one_checkpointed(task_list[i], cp, runner)
        return results
    attempts = dict.fromkeys(pending, 0)
    round_no = 0
    while pending:
        for i in pending:
            attempts[i] += 1
        completed, failed = _run_round(task_list, pending,
                                       min(n, len(pending)),
                                       task_timeout, runner)
        for i in sorted(completed):
            results[i] = completed[i]
            if cp is not None:
                cp.put(task_list[i], completed[i])
        exhausted = [i for i in sorted(failed) if attempts[i] > retries]
        if exhausted:
            details = "; ".join(
                f"{task_list[i].workload}/{task_list[i].scheme}: "
                f"{failed[i]}" for i in exhausted)
            raise SweepExecutionError(
                f"{len(exhausted)} sweep cell(s) failed after "
                f"{retries + 1} attempt(s): {details}")
        pending = sorted(failed)
        if pending:
            round_no += 1
            time.sleep(min(backoff_cap,
                           backoff_base * (2 ** (round_no - 1))))
    return results
