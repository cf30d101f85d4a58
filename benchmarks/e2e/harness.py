"""One benchmark *pass*: a workload's whole grid, run once, cold.

A pass runs inside its own interpreter (``run.py`` starts one per
pass), with the result cache off and no sweep checkpoint, through the
same public entry point a user calls: ``full_evaluation`` for the
paper evaluation, ``run_scenario`` for everything else.

Spans are recorded at cell boundaries only, by wrapping methods from
the outside: ``WorkloadSpec.build`` opens a cell and its
``workloads.build`` span, ``System.__init__`` is ``system.build``,
``System.run`` is ``system.run`` (with an ``audit`` child per audit)
and closes the cell.  That is O(cells) work per pass.  Forked pool
workers inherit the wrappers; each appends its finished cells to a
per-pid file in a spool directory that the pass merges when the grid
returns.

The ``System.run`` wrapper also checks every cell: it must commit each
transaction instance of its workload exactly once, account every
attempt as a commit or an abort, and pass the system's own coherence
and value audits.  A cell that raises ``StallError``,
``CoherenceViolation`` or ``RuntimeError`` is recorded as failed and
the grid carries on with the statistics as they stood.

In plain passes every cell also times calibration samples
(:func:`calibration_seconds`) before, during and after its run, so that
host times can be read in units of the host's speed at that moment.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import json
import math
import multiprocessing
import os
import pstats
import time
import tracemalloc
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import layers

# =====================================================================
# workloads
# =====================================================================

#: The tournament grid: every registered scheme on the golden tour's
#: high-contention member (intruder), its mixed member (vacation) and
#: the largest write sets (labyrinth, where lazy versioning publishes
#: the most at commit).
TOURNAMENT_WORKLOADS = ("intruder", "vacation", "labyrinth")

#: ``full_evaluation`` takes no smoke switch; below about 0.2 the STAMP
#: generators floor to the same per-node instance counts, so this is
#: the smallest grid it can run.
PAPER_SMOKE_SCALE = 0.05

#: Mesh size of every smoke-size scenario grid.
SMOKE_NODES = 16

# (expected cell count, zero-argument call returning domain outputs)
Plan = Tuple[int, Callable[[], Dict[str, float]]]


def _paper_eval(seed: int, smoke: bool, jobs: int) -> Plan:
    from repro.analysis.experiments import SCHEME_ORDER, full_evaluation
    from repro.workloads.stamp import STAMP_WORKLOADS

    def call() -> Dict[str, float]:
        figs = full_evaluation(scale=PAPER_SMOKE_SCALE if smoke else 1.0,
                               seed=seed, jobs=jobs)
        # Table I is read off the sweep's own baseline cells.
        baseline = figs["fig10"].data["sweep"].stats
        errors = [abs(100 * baseline[name]["baseline"].abort_rate()
                      - meta.paper_abort_pct)
                  for name, meta in STAMP_WORKLOADS.items()]
        return {
            "puno_aborts_hc": figs["fig10"].data["hc_average"]["puno"],
            "puno_exec_hc": figs["fig13"].data["hc_average"]["puno"],
            "table1_abort_err_pp": sum(errors) / len(errors),
        }

    return len(STAMP_WORKLOADS) * len(SCHEME_ORDER), call


def _scenario_plan(spec, smoke: bool, jobs: int) -> Plan:
    from repro.scenarios import run_scenario
    if smoke:
        # the scenario's own smoke variant, on the paper's 16 nodes
        spec = replace(spec.smoke(), nodes=SMOKE_NODES)

    def call() -> Dict[str, float]:
        run_scenario(spec, jobs=jobs, cache=False, checkpoint=False)
        return {}

    return spec.num_cells, call


def _tournament(seed: int, smoke: bool, jobs: int) -> Plan:
    from repro.schemes.tournament import tournament_spec
    spec = tournament_spec(scale=1.0, workloads=TOURNAMENT_WORKLOADS,
                           seeds=(seed,))
    return _scenario_plan(spec, smoke, jobs)


#: Zipf skew of the 1024-node cell.  The registered ``paper-1024`` cell
#: (s = 1.2) puts most RMWs of 1024 nodes on one or two head lines; its
#: abort storms make the simulated work of one seed 2.5x that of
#: another.  At s = 0.8 the head lines still gather sharer lists
#: hundreds of nodes wide, and the work varies by under 10% per seed.
MESH_ZIPF_S = 0.8


def _mesh_1024(seed: int, smoke: bool, jobs: int) -> Plan:
    from repro.scenarios import get_scenario
    base = get_scenario("paper-1024")
    (zipf,) = base.workloads
    zipf = replace(zipf, params={**zipf.params, "zipf_s": MESH_ZIPF_S})
    spec = replace(base, workloads=(zipf,), schemes=("baseline",),
                   seeds=(seed,))
    return _scenario_plan(spec, smoke, jobs)


def _puno_256(seed: int, smoke: bool, jobs: int) -> Plan:
    from repro.scenarios import get_scenario
    spec = replace(get_scenario("paper-256"), schemes=("puno",),
                   scale=0.1, seeds=(seed,))
    return _scenario_plan(spec, smoke, jobs)


@dataclass(frozen=True)
class Workload:
    """A named grid and how many worker processes its untraced passes
    use (traced passes always run in-process)."""

    name: str
    jobs: int
    plan: Callable[[int, bool, int], Plan]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper_eval", 1, _paper_eval),
    Workload("scheme_tournament", 2, _tournament),
    Workload("mesh_1024", 1, _mesh_1024),
    Workload("puno_256", 1, _puno_256),
)}


def import_entry_points() -> None:
    """Import everything any pass imports before its first cell, so
    every workload's import time and memory floor cover the same
    modules."""
    import repro.analysis.experiments  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.schemes.tournament  # noqa: F401
    import repro.system  # noqa: F401


# =====================================================================
# host speed
# =====================================================================

#: Loop iterations of one calibration sample (about 1 ms here).
CALIBRATION_EVENTS = 1_000

#: A cell takes one calibration sample every this many engine events
#: (about 40 ms of simulation), besides the samples just before and
#: after its run.  The host's speed changes within a second; many short
#: samples follow it better than a few long ones, for the same 3% of
#: the run.
CALIBRATION_SLICE = 5_000

#: Samples averaged for the speed at the start of a pass.
START_SAMPLES = 10


class _Token:
    __slots__ = ("node", "value")

    def __init__(self, node: int, value: int):
        self.node = node
        self.value = value


def calibration_seconds(n: int = CALIBRATION_EVENTS) -> float:
    """Host seconds of a fixed pure-Python loop shaped like the
    simulator's hot path: a steady 1024-entry event heap of tuples, one
    slotted object per event, dict counters.  It shares no code with
    the package, so it measures the host's speed at the moment, not the
    simulator's.

    The cyclic collector is off for the sample: its live objects would
    otherwise trigger collections whose cost grows with the heap of the
    simulation around it, not with the host's speed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap = [(i, i, _Token(i & 63, i)) for i in range(1024)]
        heapify(heap)
        counts: Dict[int, int] = {}
        for seq in range(1024, 1024 + n):
            t, _, tok = heappop(heap)
            counts[tok.node] = counts.get(tok.node, 0) + tok.value
            heappush(heap, (t + (seq * 7919 & 1023), seq,
                            _Token(tok.node, seq & 7)))
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


# =====================================================================
# spans
# =====================================================================

def span_self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time of every span: its duration minus the durations of its
    direct children."""
    child_time: Dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for s in spans}


class Recorder:
    """Spans and cell records of one pass, kept in memory until the
    pass ends."""

    def __init__(self, spool: Optional[Path] = None, mode: str = "plain"):
        self.pass_pid = self.owner = os.getpid()
        self.spool = spool
        # only plain passes sample the host's speed, so profiles show
        # the program alone
        self.plain = mode == "plain"
        self.trace_heap = mode == "tracemalloc"
        self.heap_peak = 0
        self._rss_start = 0
        self.spans: List[dict] = []
        self.cells: List[dict] = []
        self._stack: List[dict] = []
        self._seq = 0
        self._samples: List[float] = []

    # -- forked workers ----------------------------------------------
    def _adopt_fork(self) -> None:
        """A pool worker starts from a copy of its parent's recorder;
        drop the copy's history so each span is reported once."""
        if os.getpid() != self.owner:
            self.owner = os.getpid()
            self.spans, self.cells, self._stack = [], [], []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> dict:
        self._adopt_fork()
        self._seq += 1
        parent = self._stack[-1] if self._stack else None
        span = {"id": f"{self.owner}:{self._seq}", "name": name,
                "parent": parent["id"] if parent else None,
                "cell": parent["cell"] if parent else None,
                "start": time.perf_counter(), "end": None}
        if name == "cell":
            span["cell"] = span["id"]
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def open_cell(self) -> dict:
        """Open a cell span, failing any cell left open before it (one
        whose build raised before its System ran)."""
        self._adopt_fork()
        self.fail_open_cells("cell ended before System.run")
        self._samples = []
        reset_peak_rss()
        self._rss_start = status_kb("VmRSS")
        return self.open("cell")

    def current_cell(self) -> Optional[dict]:
        for s in reversed(self._stack):
            if s["name"] == "cell":
                return s
        return None

    def calibrate(self) -> None:
        """Time one calibration sample for the open cell (plain passes
        only), in a ``calibrate`` span of its own."""
        if self.plain:
            with self.span("calibrate"):
                self._samples.append(calibration_seconds())

    # -- cells ---------------------------------------------------------
    def end_cell(self, system, error: Optional[str]) -> None:
        cell = self.current_cell()
        if cell is None:
            return
        record = cell_record(system, error)
        record["cell"] = cell["id"]
        # resident memory the cell added to its process, build to run end
        record["rss_growth_kb"] = status_kb() - self._rss_start
        if self._samples:
            record["calib_s"] = sum(self._samples) / len(self._samples)
        self.close(cell)
        self.cells.append(record)
        if os.getpid() != self.pass_pid:
            self._spill(cell["id"])

    def fail_open_cells(self, error: str) -> None:
        while self.current_cell() is not None:
            cell = self.current_cell()
            while self._stack and self._stack[-1] is not cell:
                self.close(self._stack[-1])
            self.close(cell)
            self.cells.append({"cell": cell["id"], "label": "?",
                               "ok": False, "error": error})

    def _spill(self, cell_id: str) -> None:
        """Move one finished cell from a worker's memory to its spool
        file."""
        mine = [s for s in self.spans if s["cell"] == cell_id]
        self.spans = [s for s in self.spans if s["cell"] != cell_id]
        line = json.dumps({"spans": mine, "cells": self.cells})
        self.cells = []
        with open(self.spool / f"{os.getpid()}.jsonl", "a") as fh:
            fh.write(line + "\n")

    def merge_spool(self) -> None:
        """Take in every worker's cells."""
        for path in sorted(self.spool.glob("*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    entry = json.loads(line)
                    self.spans.extend(entry["spans"])
                    self.cells.extend(entry["cells"])


# =====================================================================
# cells
# =====================================================================

#: Stats counters every cell record carries (summed over a grid).
_COUNTERS = (
    "flits_injected", "dir_queue_wait_cycles", "l2_misses",
    "dir_blocked_events", "false_victims", "puno_timeouts",
    "puno_unicasts", "puno_correct_predictions", "puno_mispredictions",
    "puno_notifications", "puno_pbuffer_updates",
)


def issued_ops(workload, aborts: int) -> float:
    """Memory operations the nodes issued: every operation of the
    programs once, plus one mean-length transaction per aborted attempt
    (an aborted attempt re-executes from its start)."""
    from repro.workloads.base import TxInstance
    lengths = [len(item.ops) for prog in workload.programs for item in prog
               if isinstance(item, TxInstance)]
    mean = sum(lengths) / len(lengths) if lengths else 0.0
    return workload.total_ops() + aborts * mean


def cell_record(system, error: Optional[str]) -> dict:
    """What one finished cell contributes to the pass: its label, its
    counters, whether it is correct, and its snapshot digest."""
    st = system.stats
    scheme = (system.scheme.name if system.scheme is not None
              else system.cm.name)
    instances = system.workload.total_instances()
    record = {
        "label": f"{system.workload.name}/{scheme}",
        "instances": instances,
        "commits": st.tx_committed,
        "aborts": st.tx_aborted,
        "attempts": st.tx_attempts,
        "cycles": st.execution_cycles,
        "flits": st.flit_router_traversals,
        "messages": sum(st.messages_by_type.values()),
        "ops": issued_ops(system.workload, st.tx_aborted),
        "dir_requests": sum(st.dir_requests.values()),
        "dir_blocked_cycles": st.dir_blocked_cycles_txgetx,
        "discarded_cycles": st.discarded_cycles,
        "events": system.sim.events_processed,
    }
    record.update({name: getattr(st, name) for name in _COUNTERS})
    if error is None and st.tx_committed != instances:
        error = (f"{st.tx_committed} commits for {instances} transaction "
                 f"instances")
    if error is None and st.tx_attempts != st.tx_committed + st.tx_aborted:
        error = (f"{st.tx_attempts} attempts != {st.tx_committed} commits "
                 f"+ {st.tx_aborted} aborts")
    record["ok"] = error is None
    record["error"] = error
    record["digest"] = st.snapshot_digest() if error is None else None
    return record


def install_hooks(rec: Recorder) -> Callable[[], None]:
    """Wrap the cell-boundary methods and the engine drain; returns the
    undo."""
    from repro.analysis.parallel import WorkloadSpec
    from repro.sim.engine import Simulator
    from repro.sim.watchdog import StallError
    from repro.system import CoherenceViolation, RunResult, System

    cell_errors = (StallError, CoherenceViolation, RuntimeError)
    saved = {(WorkloadSpec, "build"): WorkloadSpec.build,
             (System, "__init__"): System.__init__,
             (System, "run"): System.run,
             (System, "audit_coherence"): System.audit_coherence,
             (System, "audit_values"): System.audit_values,
             (Simulator, "run"): Simulator.run}
    orig_build = WorkloadSpec.build
    orig_init = System.__init__
    orig_run = System.run
    orig_drain = Simulator.run

    def build(self):
        rec.open_cell()
        with rec.span("workloads.build"):
            return orig_build(self)

    def init(self, *args, **kwargs):
        if rec.current_cell() is None:
            rec.open_cell()
        if rec.trace_heap:
            tracemalloc.start()
        with rec.span("system.build"):
            orig_init(self, *args, **kwargs)

    def run(self, *args, **kwargs):
        error = None
        rec.calibrate()
        with rec.span("system.run"):
            try:
                result = orig_run(self, *args, **kwargs)
            except cell_errors as exc:
                error = f"{type(exc).__name__}: {exc}"[:300]
                result = RunResult(self.stats, self.config,
                                   self.workload.name, self.cm.name)
        if rec.trace_heap:
            rec.heap_peak = max(rec.heap_peak,
                                tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        rec.calibrate()
        rec.end_cell(self, error)
        return result

    def drain(self, until=None, max_events=None):
        # System.run drains the engine in bounded chunks; cutting each
        # chunk into CALIBRATION_SLICE-event slices executes the same
        # events in the same order and lets long cells sample the
        # host's speed as they go.
        if not rec.plain or until is not None or max_events is None:
            return orig_drain(self, until, max_events)
        while True:
            step = min(max_events, CALIBRATION_SLICE)
            before = self.events_processed
            now = orig_drain(self, max_events=step)
            done = self.events_processed - before
            max_events -= done
            if done < step or max_events <= 0:
                return now
            rec.calibrate()

    def audited(orig):
        def audit(self):
            with rec.span("audit"):
                orig(self)
        return audit

    WorkloadSpec.build = build
    System.__init__ = init
    System.run = run
    System.audit_coherence = audited(System.audit_coherence)
    System.audit_values = audited(System.audit_values)
    Simulator.run = drain

    def uninstall() -> None:
        for (cls, name), fn in saved.items():
            setattr(cls, name, fn)

    return uninstall


# =====================================================================
# one pass
# =====================================================================

#: ``plain`` passes are timed; ``profile`` runs under cProfile, and
#: ``tracemalloc`` traces each cell's allocations from ``System()`` to
#: the end of its run (tracing the workload generators too would take
#: minutes on the 1024-node mesh).  Traced modes run in-process.
MODES = ("plain", "profile", "tracemalloc")


def _reap_children() -> None:
    """Wait for every worker process the pass started (the sweep
    executor terminates its pool without joining it)."""
    for proc in multiprocessing.active_children():
        proc.join(timeout=10)
        if proc.is_alive():
            proc.terminate()
            proc.join()


def run_pass(workload: str, seed: int, smoke: bool = False,
             mode: str = "plain", spool: Optional[Path] = None) -> dict:
    """Run one workload's grid once; return spans, cell records and,
    for traced modes, the layer split or the Python heap peak.

    A pass with pool workers needs ``spool``, an empty directory the
    workers write their cells to; the caller removes it.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, not {mode!r}")
    wl = WORKLOADS[workload]
    jobs = wl.jobs if mode == "plain" else 1
    if jobs > 1 and spool is None:
        raise ValueError(f"{workload} runs {jobs} workers and needs a "
                         f"spool directory")
    expected, call = wl.plan(seed, smoke, jobs)
    rec = Recorder(spool, mode)
    # the host's speed as the pass starts, for its import time
    start_calib = sum(calibration_seconds()
                      for _ in range(START_SAMPLES)) / START_SAMPLES
    profiler = cProfile.Profile() if mode == "profile" else None
    outputs: Dict[str, float] = {}
    error = None
    uninstall = install_hooks(rec)
    try:
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            outputs = call()
        except Exception as exc:  # a failed pass is reported, not raised
            error = f"{type(exc).__name__}: {exc}"[:300]
        finally:
            if profiler is not None:
                profiler.disable()
        wall = time.perf_counter() - t0
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        uninstall()
        _reap_children()
        if spool is not None:
            rec.merge_spool()
    rec.fail_open_cells(error or "cell did not finish")
    result = {"workload": workload, "seed": seed, "smoke": smoke,
              "mode": mode, "jobs": jobs, "wall_s": wall,
              "calib_s": start_calib,
              "expected_cells": expected, "error": error,
              "outputs": outputs, "spans": rec.spans, "cells": rec.cells}
    if profiler is not None:
        seconds, calls, total = layers.attribute(pstats.Stats(profiler))
        result["layers"] = {"seconds": seconds, "calls": calls,
                            "total_s": total}
    if rec.trace_heap:
        result["py_heap_peak_bytes"] = rec.heap_peak
    return result


def outputs_finite(outputs: Dict[str, float]) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in outputs.values())


# =====================================================================
# memory
# =====================================================================

def parse_status_kb(status_text: str, field: str = "VmHWM") -> int:
    """One kB field of a ``/proc/<pid>/status`` text: ``VmHWM`` (peak
    resident set) or ``VmRSS`` (current resident set).

    Unlike ``ru_maxrss``, ``VmHWM`` belongs to this process alone: a
    child started by fork and exec inherits its parent's ``ru_maxrss``.
    """
    for line in status_text.splitlines():
        if line.startswith(field + ":"):
            value, unit = line.split()[1:3]
            if unit != "kB":
                raise ValueError(f"unexpected {field} unit {unit!r}")
            return int(value)
    raise ValueError(f"no {field} line in process status")


def status_kb(field: str = "VmHWM") -> int:
    with open("/proc/self/status") as fh:
        return parse_status_kb(fh.read(), field)


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
