"""Process-pool sweep execution.

Every cell of an evaluation grid (one workload under one scheme) is an
independent simulation, so a sweep is embarrassingly parallel.  This
module runs grids across a process pool driven by *picklable task
descriptors* — a :class:`WorkloadSpec` naming how to rebuild the
workload (name / scale / seed / node count) plus the scheme name and
frozen :class:`~repro.sim.config.SystemConfig` — never live
``Workload`` or ``System`` objects.  Each worker rebuilds its workload
from the spec (once for a run of equal specs, as a grid's schemes for
one workload are: see :meth:`WorkloadSpec.build`), simulates it, and
ships the
:class:`~repro.sim.stats.Stats` back — for a fault cell that stalled,
with the watchdog's :class:`~repro.sim.watchdog.StallReport`.

Results are assembled in task-submission order, so a parallel sweep is
bit-identical to the serial path: same per-cell Stats, same grid
iteration order, independent of worker scheduling.

The result store
----------------

:func:`run_tasks_resilient` is the one place a grid consults the
on-disk result cache (:mod:`repro.sim.resultcache`).  It resolves the
store once, in the parent, and keys every cell by its content address
:func:`task_key` (source digest, label, scheme, config, workload spec,
``max_cycles``, audit and fault profile).  Hits are served before any
dispatch, without building the workload; misses go to the runner, and
the parent stores each result as it arrives.  An interrupted sweep is
therefore resumed by running it again with the cache on: only the
missing cells simulate.  Sanitized runs bypass the store (see
:func:`~repro.sim.resultcache.resolve_cache`), and a stalled cell is
never stored.

Resilient execution
-------------------

The executor also adds the orchestration-level robustness a
multi-hour sweep needs:

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
  terminated, and the unfinished cells retried.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.faults import audits_safe, parse_fault_spec
from repro.sim.config import SystemConfig
from repro.sim.resultcache import CacheLike, CellRecord, ResultCache, \
    config_fingerprint, resolve_cache, source_digest
from repro.sim.stats import Stats
from repro.sim.watchdog import StallReport
from repro.workloads.base import Workload


#: The last workload :meth:`WorkloadSpec.build` made in this process,
#: under ``repr`` of its spec (at most one entry).  Forked pool workers
#: inherit it.
_kept: Dict[str, Workload] = {}


def forget_last_build() -> None:
    """Drop the workload :meth:`WorkloadSpec.build` keeps (for tests
    that swap a workload factory)."""
    _kept.clear()


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
        """The workload this spec names, built at most once in a row.

        The last build is kept, keyed by ``repr(self)``: a grid runs
        workload-major, so every scheme of a row after the first gets
        the same object back.  Sharing is sound because no run writes
        into a ``Workload`` (nodes only index ``programs`` and
        ``ops``).  A miss drops the kept workload before building, so
        its memory is free for the next one.
        """
        key = repr(self)
        workload = _kept.get(key)
        if workload is None:
            _kept.clear()
            workload = _kept[key] = self._generate()
        return workload

    def _generate(self) -> Workload:
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
    # Optional parse_fault_spec string (scenario fault profiles).  A
    # fault cell runs with the engine watchdog armed; task_key covers
    # the string, so it never shares a store entry with a plain cell.
    faults: str = ""


@dataclass
class TaskResult:
    """What a worker ships back for one cell.

    A fault cell that stalled comes back with the watchdog's ``stall``
    report and the partial ``stats`` up to the stall; ``faults`` is the
    injector's summary and ``end_cycle`` the engine clock when the run
    returned or stalled.  A replayed cell carries all three as they
    were computed; the store never holds a stalled cell.
    """

    workload: str
    scheme: str
    stats: Stats
    wall_seconds: float
    cache_hit: bool
    stall: Optional[StallReport] = None
    faults: Dict[str, int] = field(default_factory=dict)
    end_cycle: int = 0


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request: None/0 -> all cores, floor 1."""
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def run_task(task: SweepTask) -> TaskResult:
    """Execute one cell (worker entry point; must stay module-level
    so it pickles under every multiprocessing start method).

    A fault cell runs with the engine watchdog armed, and with the
    audits only when its fault mix preserves their assumptions (no
    drop/reorder).  Its stall is an outcome, returned with the partial
    Stats; any other exception (a sanitizer violation, a failed audit)
    is a bug and propagates."""
    from repro.sim.watchdog import StallError
    from repro.system import System
    workload = task.spec.build()
    faults = parse_fault_spec(task.faults) if task.faults else None
    t0 = time.perf_counter()
    system = System(task.config, workload, task.scheme, faults=faults,
                    watchdog=faults is not None)
    stall = None
    try:
        system.run(max_cycles=task.max_cycles,
                   audit=task.audit and audits_safe(faults))
    except StallError as exc:  # only a fault cell arms the watchdog
        stall = exc.report
    wall = time.perf_counter() - t0
    injector = system.fault_injector
    return TaskResult(task.workload, task.scheme, system.stats, wall,
                      False, stall=stall,
                      faults=injector.summary() if injector else {},
                      end_cycle=system.sim.now)


def _pool_context():
    """Prefer fork (cheap, POSIX) and fall back to the default."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def task_key(task: SweepTask) -> str:
    """Content address of one sweep cell in the result store.

    Includes the package-source digest, so a store can never replay a
    stale result across a code change.
    """
    h = hashlib.sha256()
    h.update(source_digest().encode())
    h.update(task.workload.encode())
    h.update(task.scheme.encode())
    h.update(config_fingerprint(task.config).encode())
    h.update(repr(task.spec).encode())
    h.update(repr((task.max_cycles, task.audit, task.faults)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------
# resilient execution
# ---------------------------------------------------------------------

class SweepExecutionError(RuntimeError):
    """A sweep cell failed permanently: retries exhausted on a
    crash/timeout, or a worker raised a deterministic exception."""


def _cell_error(task: SweepTask, exc: Exception) -> SweepExecutionError:
    """The sweep's failure for a cell whose runner raised."""
    return SweepExecutionError(
        f"sweep cell {task.workload!r}/{task.scheme!r} raised {exc!r}; "
        f"deterministic worker errors are not retried")


def _record(results: List[Optional[TaskResult]],
            store: Optional[ResultCache], keys: List[str], i: int,
            result: TaskResult) -> None:
    """File one computed cell in ``results`` and, when the store is on
    and the cell did not stall, under its key."""
    results[i] = result
    if store is not None and result.stall is None:
        store.put(keys[i], CellRecord(result.stats, result.faults,
                                      result.end_cycle))


def _shutdown_pool(ex: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on stuck or dead workers."""
    procs = getattr(ex, "_processes", None)
    if procs:
        for proc in list(procs.values()):
            proc.terminate()
    ex.shutdown(wait=False, cancel_futures=True)


def _run_round(task_list: List[SweepTask], pending: List[int],
               workers: int, task_timeout: Optional[float],
               runner: Callable[[SweepTask], TaskResult],
               finish: Callable[[int, TaskResult], None]
               ) -> Dict[int, str]:
    """One pool generation: submit every pending cell, hand each
    result to ``finish`` as it arrives, classify crashes and stalls.
    Returns the failed cells' reasons keyed by task index; a
    deterministic worker exception raises :class:`SweepExecutionError`
    immediately (no retry)."""
    ctx = _pool_context()
    ex = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
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
                    result = f.result()
                except BrokenProcessPool:
                    failed[i] = "worker process died (BrokenProcessPool)"
                    continue
                except Exception as exc:
                    raise _cell_error(task_list[i], exc) from exc
                finish(i, result)
    finally:
        _shutdown_pool(ex)
    return failed


def run_tasks_resilient(tasks: Iterable[SweepTask],
                        jobs: Optional[int] = None,
                        retries: int = 2,
                        task_timeout: Optional[float] = None,
                        backoff_base: float = 0.25,
                        backoff_cap: float = 8.0,
                        cache: CacheLike = True,
                        runner: Callable[[SweepTask], TaskResult] = run_task
                        ) -> List[TaskResult]:
    """Run every cell, results in input order.

    ``jobs <= 1`` (after resolution), or a single cell to compute,
    runs in-process — the same runner the workers use, so serial and
    parallel sweeps differ only in scheduling.  ``cache`` is resolved
    once by :func:`~repro.sim.resultcache.resolve_cache`; cells found
    in the store come back without running (``cache_hit=True``), and
    every computed cell is stored as it arrives, so a re-run recomputes
    only what is missing.

    A cell whose runner raises fails the sweep at once with
    :class:`SweepExecutionError` naming the cell (the original
    exception is its ``__cause__``); a fault cell's stall is not an
    exception but a result (``TaskResult.stall``), and is never stored.
    Crashed workers and stuck pools are retried up to ``retries``
    times with exponential backoff (``backoff_base * 2**round``,
    capped); exhaustion raises :class:`SweepExecutionError` naming the
    failed cells.  ``runner`` is the per-cell entry point and must
    stay a module-level function (it crosses the pickle boundary).
    """
    task_list = list(tasks)
    store = resolve_cache(cache)
    keys = [task_key(t) for t in task_list] if store is not None else []
    results: List[Optional[TaskResult]] = [None] * len(task_list)
    pending: List[int] = []
    for i, task in enumerate(task_list):
        record = store.get(keys[i]) if store is not None else None
        if record is None:
            pending.append(i)
        else:
            results[i] = TaskResult(task.workload, task.scheme,
                                    record.stats, 0.0, True,
                                    faults=record.faults,
                                    end_cycle=record.end_cycle)
    finish = partial(_record, results, store, keys)
    n = resolve_jobs(jobs)
    if n <= 1 or len(pending) <= 1:
        # in-process path: a crash here is a crash of the caller, so
        # there is nothing to retry; a raising cell fails the sweep
        # with the same error a worker's would
        for i in pending:
            try:
                result = runner(task_list[i])
            except Exception as exc:
                raise _cell_error(task_list[i], exc) from exc
            finish(i, result)
        return results
    attempts = dict.fromkeys(pending, 0)
    round_no = 0
    while pending:
        for i in pending:
            attempts[i] += 1
        failed = _run_round(task_list, pending, min(n, len(pending)),
                            task_timeout, runner, finish)
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
