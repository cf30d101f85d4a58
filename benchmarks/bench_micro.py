#!/usr/bin/env python
"""Hot-path microbenchmarks: message allocation, network send/deliver,
handler dispatch, raw event-engine throughput (unbounded and in the
``max_events`` chunks real runs drain by), the PUNO rollover tick,
Zipf workload generation, the workload builds of the paper grid's
set-up, and an end-to-end STAMP-tour event-rate measurement.

Writes ``BENCH_hotpath.json`` (repo root by default) so the perf
trajectory is versioned alongside the code.  ``--check BASELINE.json``
compares the fresh end-to-end aggregate event rate against a committed
baseline and exits non-zero only on a gross (>2x) regression — loose
enough to ride out shared-runner noise, tight enough to catch a
quadratic slip on the hot path.

Run directly (no install needed)::

    python benchmarks/bench_micro.py --quick
    python benchmarks/bench_micro.py --check BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# The STAMP-tour cells the end-to-end phase measures (workload, scheme).
TOUR_CELLS = (("intruder", "baseline"), ("intruder", "puno"),
              ("vacation", "puno"))

# The mesh_scaling phase: (num_nodes, zipf scale) per mesh size.  The
# scale halves as the node count quadruples so per-size wall time stays
# bounded while total simulated work still grows with the mesh.
MESH_SCALING_SIZES = ((16, 0.4), (64, 0.2), (256, 0.1), (1024, 0.05))

# Allowed events/sec falloff from the 64-node rate to the 1024-node
# rate: with O(N)-memory routing the per-event cost must stay nearly
# flat, so a >3x drop means something quadratic crept back in.
MESH_SCALING_FALLOFF_LIMIT = 3.0

# Allowed net peak RSS per mesh size: this factor times the baseline's
# plus a fixed slack, so the small meshes (a few hundred kB over the
# import floor) do not trip on allocator noise while a structure that
# grows faster than the mesh still does.
MESH_RSS_GROWTH_LIMIT = 1.5
MESH_RSS_SLACK_KB = 2048

# The chunked_drain phase drains in slices of this many events: the
# bounded run(max_events=...) path System.run and the e2e harness take.
CHUNKED_DRAIN_SLICE = 5_000

# The puno_tick phase: P-Buffer sizes (entries = nodes) whose rollover
# tick rates it records.  A tick is O(1), so the rate at the largest
# size must stay within PUNO_TICK_WIDTH_LIMIT x of the smallest; a
# tick that sweeps every entry measured 3.4x (2-vCPU x86-64 host,
# Python 3.11).  A timed run is PUNO_TICK_N ticks (~0.4 s there), also
# under --quick: at 50,000 (15 ms) the ratio read 0.89x-1.61x.
PUNO_TICK_SIZES = (16, 256)
PUNO_TICK_WIDTH_LIMIT = 2.0
PUNO_TICK_N = 1_000_000

# The workload_build phase: Zipf array sizes (lines) whose generation
# rates, in ranks drawn per second by make_zipf_workload on
# WORKLOAD_BUILD_NODES nodes, it records.  With the CDF built once per
# workload a draw costs O(log lines), so the rate at the largest size
# must stay within WORKLOAD_BUILD_WIDTH_LIMIT x of the smallest; a CDF
# rebuilt for every transaction measured 17-30x (2-vCPU x86-64 host,
# Python 3.11).
WORKLOAD_BUILD_LINES = (256, 8192)
WORKLOAD_BUILD_NODES = 64
WORKLOAD_BUILD_WIDTH_LIMIT = 2.0


def _best_of(fn, repeats: int) -> float:
    """Smallest wall time of ``repeats`` calls to ``fn()`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------
# phase 1: message construction
# ---------------------------------------------------------------------

def bench_message_construct(n: int, repeats: int) -> dict:
    from repro.network.message import Message, MessageType, make_nack

    def keyword():
        for _ in range(n):
            Message(MessageType.NACK, 0x40, 3, 7, requester=7, req_id=11,
                    terminal=True, t_est=120)

    def factory():
        for _ in range(n):
            make_nack(0x40, 3, 7, 11, terminal=True, t_est=120)

    kw = _best_of(keyword, repeats)
    fa = _best_of(factory, repeats)
    return {"n": n,
            "keyword_ns_per_msg": kw / n * 1e9,
            "factory_ns_per_msg": fa / n * 1e9}


# ---------------------------------------------------------------------
# phase 2: raw event-engine throughput
# ---------------------------------------------------------------------

def bench_event_engine(n: int, repeats: int) -> dict:
    from repro.sim.engine import Simulator

    def drain():
        sim = Simulator()

        def noop():
            pass

        for i in range(n):
            sim.schedule(i & 63, noop)
        sim.run()

    wall = _best_of(drain, repeats)
    return {"n": n, "events_per_sec": n / wall}


# ---------------------------------------------------------------------
# phase 2b: batched same-cycle drain (Event-free call_later path)
# ---------------------------------------------------------------------

def bench_batched_drain(n: int, repeats: int) -> dict:
    """Same-cycle delivery batch: ``n`` Event-free callbacks landing
    on one timestamp, drained by the unbounded run loop — the clock
    commits once per timestamp and every follower pays only a local
    compare, which is the engine's batching contract."""
    from repro.sim.engine import Simulator

    def drain():
        sim = Simulator()

        def noop():
            pass

        call_later = sim.call_later
        for _ in range(n):
            call_later(3, noop)
        sim.run()

    wall = _best_of(drain, repeats)
    return {"n": n, "events_per_sec": n / wall}


# ---------------------------------------------------------------------
# phase 2c: chunked drain (the path real runs take)
# ---------------------------------------------------------------------

def bench_chunked_drain(n: int, repeats: int) -> dict:
    """The ``event_engine`` schedule drained the way real runs drain:
    ``System.run`` always passes ``max_events``, so every simulated
    event goes through the bounded loop, here in
    ``CHUNKED_DRAIN_SLICE``-event slices."""
    from repro.sim.engine import Simulator

    def drain():
        sim = Simulator()

        def noop():
            pass

        for i in range(n):
            sim.schedule(i & 63, noop)
        while not sim.idle():
            sim.run(max_events=CHUNKED_DRAIN_SLICE)

    wall = _best_of(drain, repeats)
    return {"n": n, "slice": CHUNKED_DRAIN_SLICE,
            "events_per_sec": n / wall}


# ---------------------------------------------------------------------
# phase 3: network send + deliver
# ---------------------------------------------------------------------

def bench_send_deliver(n: int, repeats: int) -> dict:
    from repro.network.message import Message, MessageType
    from repro.network.network import Network
    from repro.network.topology import Mesh
    from repro.sim.config import NetworkConfig
    from repro.sim.engine import Simulator
    from repro.sim.stats import Stats

    cfg = NetworkConfig()
    num = cfg.num_nodes
    msgs = [Message(MessageType.GETS, i, i % num, (i * 7) % num)
            for i in range(n)]

    def pump():
        sim = Simulator()
        stats = Stats(num)
        net = Network(sim, Mesh(cfg), stats)
        sink = (lambda m: None)
        for node in range(num):
            net.register(node, sink)
        send = net.send
        for m in msgs:
            send(m)
        sim.run()

    wall = _best_of(pump, repeats)
    return {"n": n, "messages_per_sec": n / wall}


# ---------------------------------------------------------------------
# phase 4: handler dispatch
# ---------------------------------------------------------------------

def bench_dispatch(n: int, repeats: int) -> dict:
    """node.receive() of a PUT_ACK — table dispatch plus an idempotent
    handler, isolating the per-message dispatch overhead."""
    from repro.network.message import make_put_ack
    from repro.sim.config import SystemConfig
    from repro.system import System
    from repro.workloads.stamp import make_stamp_workload

    wl = make_stamp_workload("intruder", num_nodes=16, scale=0.05, seed=0)
    system = System(SystemConfig(seed=0), wl, "baseline")
    node = system.nodes[0]
    msg = make_put_ack(0x80, 8, 0, 1)

    def spin():
        receive = node.receive
        for _ in range(n):
            receive(msg)

    wall = _best_of(spin, repeats)
    return {"n": n, "ns_per_receive": wall / n * 1e9}


# ---------------------------------------------------------------------
# phase 4b: int-coded flat-table dispatch
# ---------------------------------------------------------------------

def bench_int_dispatch(n: int, repeats: int) -> dict:
    """Delivery dispatch as the int-coded hot path performs it: one
    list index for the per-type stats accumulation and one flat-table
    index for the handler, no str hashing and no enum dict lookup."""
    from repro.network.message import (Message, MessageType,
                                       N_MESSAGE_TYPES)
    from repro.network.network import Network
    from repro.network.topology import Mesh
    from repro.sim.config import NetworkConfig
    from repro.sim.engine import Simulator
    from repro.sim.stats import Stats

    cfg = NetworkConfig()
    num = cfg.num_nodes
    stats = Stats(num)
    net = Network(Simulator(), Mesh(cfg), stats)

    def sink(m):
        return None

    for node in range(num):
        net.register_table(node, [sink] * N_MESSAGE_TYPES)
    msgs = [Message(MessageType(i % N_MESSAGE_TYPES), i, i % num,
                    (i * 7) % num)
            for i in range(256)]
    rounds = max(1, n // 256)

    def spin():
        handlers = net._handlers
        counts = stats._msg_counts
        for _ in range(rounds):
            for m in msgs:
                code = m.mtype
                counts[code] += 1
                handlers[m.dst * N_MESSAGE_TYPES + code](m)

    wall = _best_of(spin, repeats)
    eff = rounds * 256
    return {"n": eff, "ns_per_dispatch": wall / eff * 1e9}


# ---------------------------------------------------------------------
# phase 4c: mesh scale-out (16 -> 1024 nodes, one subprocess per size)
# ---------------------------------------------------------------------

# Runs in a fresh interpreter and reads the peak resident set from
# VmHWM in /proc/self/status: unlike ru_maxrss, which a fork+exec child
# inherits from its parent, VmHWM belongs to the child alone.  With
# nodes == 0 the child only imports, giving the floor every size's
# peak is measured against.  With "heap" as the third argument the
# child instead reports the tracemalloc peak of the simulation, from
# System() to the end of the run; tracing slows the run, so that child
# is not the timed one.
_MESH_CELL_SNIPPET = r"""
import json, sys, time, tracemalloc


def vm_hwm_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                value, unit = line.split()[1:3]
                if unit != "kB":
                    raise ValueError(f"unexpected VmHWM unit {unit!r}")
                return int(value)
    raise ValueError("no VmHWM line in process status")


nodes, scale = int(sys.argv[1]), float(sys.argv[2])
heap = sys.argv[3:] == ["heap"]
from repro.sim.config import scaled_config
from repro.system import System
from repro.workloads.families import make_zipf_workload
if nodes == 0:
    print(json.dumps({"peak_rss_kb": vm_hwm_kb()}))
    sys.exit()
wl = make_zipf_workload(num_nodes=nodes, scale=scale, seed=0,
                        lines=8 * nodes)
if heap:
    tracemalloc.start()
system = System(scaled_config(nodes, seed=1), wl, "baseline")
t0 = time.perf_counter()
system.run()
wall = time.perf_counter() - t0
if heap:
    print(json.dumps({"py_heap_peak_kb":
                      tracemalloc.get_traced_memory()[1] // 1024}))
    sys.exit()
print(json.dumps({
    "events": system.sim.events_processed,
    "wall": wall,
    "peak_rss_kb": vm_hwm_kb(),
    "route_tables": system.mesh.has_tables,
}))
"""


def _run_mesh_cell(nodes: int, scale: float, heap: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-c", _MESH_CELL_SNIPPET, str(nodes), str(scale)]
    if heap:
        argv.append("heap")
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout)


def bench_mesh_scaling(repeats: int) -> dict:
    """Events/sec, peak RSS and Python heap peak per mesh size, one
    subprocess per run.

    Rates are best-of-``repeats``; peak RSS is the max over repeats
    (it is a property of the size, not of scheduler luck), net of the
    smallest peak of an import-only child.  The tracemalloc peak comes
    from one extra traced child per size and is recorded, not gated."""
    floor = min(_run_mesh_cell(0, 0.0)["peak_rss_kb"]
                for _ in range(repeats))
    out = {}
    for nodes, scale in MESH_SCALING_SIZES:
        best_rate = 0.0
        peak_rss = 0
        events = 0
        tables = None
        for _ in range(repeats):
            cell = _run_mesh_cell(nodes, scale)
            best_rate = max(best_rate, cell["events"] / cell["wall"])
            peak_rss = max(peak_rss, cell["peak_rss_kb"])
            events = cell["events"]
            tables = cell["route_tables"]
        out[str(nodes)] = {"nodes": nodes, "scale": scale,
                           "events": events,
                           "events_per_sec": best_rate,
                           "peak_rss_kb": peak_rss - floor,
                           "py_heap_peak_kb": _run_mesh_cell(
                               nodes, scale, heap=True)["py_heap_peak_kb"],
                           "route_tables": tables}
    return out


# ---------------------------------------------------------------------
# phase 4d: PUNO rollover tick
# ---------------------------------------------------------------------

def bench_puno_tick(n: int, repeats: int) -> dict:
    """Rollover ticks per second of one ``DirectoryPUNO`` alone on a
    ``Simulator``, at each size in ``PUNO_TICK_SIZES``: the tick is the
    only event, so the rate is the per-tick cost the 256-node PUNO
    cells pay on most of their events.  The P-Buffer is the engine's
    native periodic counter, so a tick is the drain loop's own work
    (pop, count, re-arm) with no callback.  One directory means one
    counter per cycle: this is the unbatched path, where every tick
    pays its own pop and push; in a cell of many directories the
    ticks of one cycle share one heap entry.  Every entry holds a
    priority before the first tick.  The sizes take turns, best of at
    least 5, so a slow spell on a shared host hits both of them."""
    from repro.core.puno import DirectoryPUNO
    from repro.sim.config import PUNOConfig
    from repro.sim.engine import Simulator
    from repro.sim.stats import Stats

    def tick(entries):
        cfg = PUNOConfig(pbuffer_entries=entries)
        sim = Simulator()
        unit = DirectoryPUNO(sim, entries, cfg, Stats(entries))
        for node in range(entries):
            unit.pbuffer.update(node, node)
        sim.run(max_events=n)
        unit.stop()
        if unit.stats.puno_timeouts != n:
            raise AssertionError(
                f"puno_tick: {unit.stats.puno_timeouts} ticks for "
                f"{n} events")

    best = dict.fromkeys(PUNO_TICK_SIZES, float("inf"))
    for _ in range(max(repeats, 5)):
        for entries in PUNO_TICK_SIZES:
            best[entries] = min(best[entries],
                                _best_of(lambda: tick(entries), 1))
    return {"n": n, **{f"ticks_per_sec_{entries}": n / best[entries]
                       for entries in PUNO_TICK_SIZES}}


# ---------------------------------------------------------------------
# phase 4e: Zipf workload generation
# ---------------------------------------------------------------------

def bench_workload_build(repeats: int) -> dict:
    """Ranks drawn per second by ``make_zipf_workload`` on
    ``WORKLOAD_BUILD_NODES`` nodes at each size in
    ``WORKLOAD_BUILD_LINES``, timing the whole build (CDF, draws and
    program construction) with the default instance and read counts.
    A build takes tens of milliseconds, so it is best of at least 5
    even in a quick run: the size ratio is gated, and one slow sample
    on a shared runner must not decide it."""
    from repro.workloads.families import make_zipf_workload

    out = {"nodes": WORKLOAD_BUILD_NODES}
    for lines in WORKLOAD_BUILD_LINES:
        def build():
            return make_zipf_workload(num_nodes=WORKLOAD_BUILD_NODES,
                                      seed=0, lines=lines)

        params = build().params
        ranks = (WORKLOAD_BUILD_NODES * params["instances"]
                 * min(params["tx_reads"], lines))
        out[f"ranks_per_sec_{lines}"] = ranks / _best_of(
            build, max(repeats, 5))
    return out


# ---------------------------------------------------------------------
# phase 4f: workload builds over the paper grid
# ---------------------------------------------------------------------

def bench_grid_setup(scale: float, repeats: int) -> dict:
    """Factory builds and their wall time when every cell of the 8 x 4
    paper grid asks ``WorkloadSpec.build`` for its workload, in the
    grid's (workload-major) task order, starting with nothing kept.
    One build per distinct spec is the contract ``--check`` gates: a
    count, so runner speed does not enter it."""
    import repro.workloads.stamp as stamp
    from repro.analysis.experiments import paper_spec
    from repro.analysis.parallel import forget_last_build
    from repro.scenarios.runner import scenario_tasks

    tasks = scenario_tasks(paper_spec(scale=scale))
    real = stamp.make_stamp_workload
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    def setup():
        forget_last_build()
        builds.clear()
        for task in tasks:
            task.spec.build()

    stamp.make_stamp_workload = counting
    try:
        best = _best_of(setup, repeats)
    finally:
        stamp.make_stamp_workload = real
        forget_last_build()
    return {"cells": len(tasks),
            "distinct_specs": len({repr(t.spec) for t in tasks}),
            "builds": len(builds), "seconds": best}


# ---------------------------------------------------------------------
# phase 5: end-to-end STAMP tour
# ---------------------------------------------------------------------

def _canon(o):
    """Stable JSON form: enum keys to names, dict keys sorted."""
    if isinstance(o, dict):
        return {getattr(k, "name", str(k)): _canon(v)
                for k, v in sorted(o.items(), key=lambda kv: str(kv[0]))}
    if isinstance(o, list):
        return [_canon(v) for v in o]
    return o


def bench_end_to_end(scale: float, repeats: int) -> dict:
    from repro.sim.config import SystemConfig
    from repro.system import System
    from repro.workloads.stamp import make_stamp_workload

    out = {}
    total_events = 0
    total_wall = 0.0
    for wl_name, scheme in TOUR_CELLS:
        best = float("inf")
        events = 0
        snap_sha = ""
        for _ in range(repeats):
            wl = make_stamp_workload(wl_name, num_nodes=16, scale=scale,
                                     seed=0)
            system = System(SystemConfig(seed=0), wl, scheme)
            t0 = time.perf_counter()
            result = system.run()
            wall = time.perf_counter() - t0
            best = min(best, wall)
            events = system.sim.events_processed
            blob = json.dumps(_canon(result.stats.snapshot()),
                              sort_keys=True)
            sha = hashlib.sha256(blob.encode()).hexdigest()[:16]
            if snap_sha and sha != snap_sha:
                raise AssertionError(
                    f"nondeterministic run: {wl_name}/{scheme} snapshot "
                    f"changed between repeats")
            snap_sha = sha
        key = f"{wl_name}/{scheme}"
        out[key] = {"events": events, "events_per_sec": events / best,
                    "snapshot_sha": snap_sha}
        total_events += events
        total_wall += best
    out["aggregate_events_per_sec"] = total_events / total_wall
    return out


# ---------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------

def run_benchmarks(scale: float, repeats: int, micro_n: int,
                   mesh_repeats: int = 1) -> dict:
    report = {
        "schema": 1,
        "bench": "hotpath",
        "python": platform.python_version(),
        "scale": scale,
        "repeats": repeats,
        "phases": {
            "message_construct": bench_message_construct(micro_n, repeats),
            "event_engine": bench_event_engine(micro_n, repeats),
            "batched_drain": bench_batched_drain(micro_n, repeats),
            "chunked_drain": bench_chunked_drain(micro_n, repeats),
            "send_deliver": bench_send_deliver(micro_n // 4, repeats),
            "dispatch": bench_dispatch(micro_n, repeats),
            "int_dispatch": bench_int_dispatch(micro_n, repeats),
            "puno_tick": bench_puno_tick(PUNO_TICK_N, repeats),
            "workload_build": bench_workload_build(repeats),
            "grid_setup": bench_grid_setup(scale, repeats),
        },
        "mesh_scaling": bench_mesh_scaling(mesh_repeats),
        "end_to_end": bench_end_to_end(scale, repeats),
    }
    return report


def check_against(report: dict, baseline_path: Path,
                  tolerance: float = 2.0) -> int:
    """0 when the fresh aggregate rate is within ``tolerance``x of the
    committed baseline AND of the pre-optimization reference floor
    (the ``reference_pre_pr`` block, when the baseline carries one);
    1 on a gross regression against either."""
    baseline = json.loads(baseline_path.read_text())
    fresh = report["end_to_end"]["aggregate_events_per_sec"]
    status = 0
    checks = [("baseline",
               baseline["end_to_end"]["aggregate_events_per_sec"])]
    ref_block = baseline.get("reference_pre_pr")
    if ref_block:
        checks.append(("pre-optimization floor",
                       ref_block["end_to_end"]["aggregate_events_per_sec"]))
    for label, ref in checks:
        ratio = ref / fresh if fresh else float("inf")
        print(f"perf check: fresh {fresh:.0f} ev/s vs {label} "
              f"{ref:.0f} ev/s (slowdown {ratio:.2f}x, "
              f"limit {tolerance:.1f}x)")
        if ratio > tolerance:
            print(f"perf check FAILED: gross event-rate regression "
                  f"against the {label}")
            status = 1
    status |= check_chunked_drain(report, baseline, tolerance)
    status |= check_puno_tick(report, baseline, tolerance)
    status |= check_workload_build(report)
    status |= check_grid_setup(report)
    status |= check_mesh_scaling(report, baseline, tolerance)
    if status == 0:
        print("perf check OK")
    return status


def _check_floor(label: str, unit: str, rate: float, ref, tolerance: float,
                 failure: str) -> int:
    """1 when ``rate`` fell more than ``tolerance``x below the baseline
    rate ``ref`` (None: no baseline, floor skipped)."""
    if ref is None:
        print(f"{label} check: {rate:.0f} {unit} (no baseline — "
              f"floor skipped)")
        return 0
    ratio = ref / rate if rate else float("inf")
    print(f"{label} check: {rate:.0f} {unit} vs baseline {ref:.0f} {unit} "
          f"(slowdown {ratio:.2f}x, limit {tolerance:.1f}x)")
    if ratio > tolerance:
        print(f"{label} check FAILED: {failure}")
        return 1
    return 0


def check_chunked_drain(report: dict, baseline: dict,
                        tolerance: float = 2.0) -> int:
    """Floor on the chunked-drain event rate against the baseline."""
    fresh = report.get("phases", {}).get("chunked_drain")
    if not fresh:
        print("chunked drain check skipped: no chunked_drain phase in the "
              "fresh report")
        return 0
    ref = baseline.get("phases", {}).get("chunked_drain", {})
    return _check_floor("chunked drain", "ev/s", fresh["events_per_sec"],
                        ref.get("events_per_sec"), tolerance,
                        "bounded drain rate regression")


def check_puno_tick(report: dict, baseline: dict,
                    tolerance: float = 2.0) -> int:
    """Floor on the 256-entry rollover tick rate against the baseline,
    plus the O(1) contract: the largest P-Buffer's tick rate stays
    within ``PUNO_TICK_WIDTH_LIMIT``x of the smallest's."""
    fresh = report.get("phases", {}).get("puno_tick")
    if not fresh:
        print("puno tick check skipped: no puno_tick phase in the fresh "
              "report")
        return 0
    small, large = (f"ticks_per_sec_{n}"
                    for n in (PUNO_TICK_SIZES[0], PUNO_TICK_SIZES[-1]))
    rate = fresh[large]
    ref = baseline.get("phases", {}).get("puno_tick", {}).get(large)
    status = _check_floor("puno tick", "ticks/s", rate, ref, tolerance,
                          "rollover tick rate regression")
    width = fresh[small] / rate if rate else float("inf")
    print(f"puno tick check O(1): {PUNO_TICK_SIZES[0]} entries "
          f"{fresh[small]:.0f} ticks/s -> {PUNO_TICK_SIZES[-1]} entries "
          f"{rate:.0f} ticks/s (falloff {width:.2f}x, "
          f"limit {PUNO_TICK_WIDTH_LIMIT:.1f}x)")
    if width > PUNO_TICK_WIDTH_LIMIT:
        print("puno tick check FAILED: the tick cost grows with the "
              "P-Buffer size")
        status = 1
    return status


def check_workload_build(report: dict) -> int:
    """The O(log lines) draw contract: the largest Zipf array's rank
    rate stays within ``WORKLOAD_BUILD_WIDTH_LIMIT``x of the
    smallest's.  A ratio within one run, so runner speed cancels."""
    fresh = report.get("phases", {}).get("workload_build")
    if not fresh:
        print("workload build check skipped: no workload_build phase in "
              "the fresh report")
        return 0
    small, large = WORKLOAD_BUILD_LINES[0], WORKLOAD_BUILD_LINES[-1]
    r_small = fresh[f"ranks_per_sec_{small}"]
    r_large = fresh[f"ranks_per_sec_{large}"]
    width = r_small / r_large if r_large else float("inf")
    print(f"workload build check: {small} lines {r_small:.0f} ranks/s -> "
          f"{large} lines {r_large:.0f} ranks/s (falloff {width:.2f}x, "
          f"limit {WORKLOAD_BUILD_WIDTH_LIMIT:.1f}x)")
    if width > WORKLOAD_BUILD_WIDTH_LIMIT:
        print("workload build check FAILED: the per-draw cost grows with "
              "the Zipf array size")
        return 1
    return 0


def check_grid_setup(report: dict) -> int:
    """One workload build per distinct spec over the paper grid: the
    schemes of a row share their workload's build."""
    fresh = report.get("phases", {}).get("grid_setup")
    if not fresh:
        print("grid setup check skipped: no grid_setup phase in the fresh "
              "report")
        return 0
    print(f"grid setup check: {fresh['builds']} workload builds for "
          f"{fresh['cells']} cells of {fresh['distinct_specs']} distinct "
          f"specs")
    if fresh["builds"] != fresh["distinct_specs"]:
        print("grid setup check FAILED: a workload is rebuilt for each "
              "cell that names it, not once per spec")
        return 1
    return 0


def check_mesh_scaling(report: dict, baseline: dict,
                       tolerance: float = 2.0) -> int:
    """Per-size event-rate floor and net-RSS ceiling against the
    baseline, plus the scale-out contract: the 1024-node rate must
    stay within ``MESH_SCALING_FALLOFF_LIMIT``x of the 64-node rate."""
    fresh = report.get("mesh_scaling", {})
    base = baseline.get("mesh_scaling", {})
    if not fresh:
        print("mesh check skipped: no mesh_scaling phase in the fresh "
              "report")
        return 0
    status = 0
    for size, cell in sorted(fresh.items(), key=lambda kv: int(kv[0])):
        rate = cell["events_per_sec"]
        ref = base.get(size, {}).get("events_per_sec")
        if ref is None:
            print(f"mesh check {size:>5} nodes: {rate:.0f} ev/s "
                  f"(no baseline — floor skipped)")
            continue
        ratio = ref / rate if rate else float("inf")
        print(f"mesh check {size:>5} nodes: {rate:.0f} ev/s vs baseline "
              f"{ref:.0f} ev/s (slowdown {ratio:.2f}x, "
              f"limit {tolerance:.1f}x)")
        if ratio > tolerance:
            print(f"mesh check FAILED: event-rate regression at "
                  f"{size} nodes")
            status = 1
        rss = cell["peak_rss_kb"]
        ref_rss = base[size].get("peak_rss_kb")
        if ref_rss is None:
            continue
        limit = ref_rss * MESH_RSS_GROWTH_LIMIT + MESH_RSS_SLACK_KB
        print(f"mesh check {size:>5} nodes: net peak RSS {rss} kB vs "
              f"baseline {ref_rss} kB (limit {limit:.0f} kB)")
        if rss > limit:
            print(f"mesh check FAILED: peak RSS growth at {size} nodes")
            status = 1
    r64 = fresh.get("64", {}).get("events_per_sec")
    r1024 = fresh.get("1024", {}).get("events_per_sec")
    if r64 and r1024:
        falloff = r64 / r1024
        print(f"mesh check scale-out: 64-node {r64:.0f} ev/s -> "
              f"1024-node {r1024:.0f} ev/s (falloff {falloff:.2f}x, "
              f"limit {MESH_SCALING_FALLOFF_LIMIT:.1f}x)")
        if falloff > MESH_SCALING_FALLOFF_LIMIT:
            print("mesh check FAILED: 1024-node event rate fell off the "
                  "scale-out contract")
            status = 1
    return status


def _load_reference(out_path: Path, check_path) -> dict:
    """The ``reference_pre_pr`` block to embed in the written report.

    Carried forward from an existing report at ``out_path`` (or the
    --check baseline): either its own reference block, or — when the
    prior file predates the reference convention — the prior report
    itself, compacted to its end-to-end numbers.  Empty dict when no
    prior report exists."""
    for path in (out_path, check_path):
        if path is None or not Path(path).exists():
            continue
        try:
            prior = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"reference: ignoring unreadable {path} ({exc})")
            continue
        if "reference_pre_pr" in prior:
            return prior["reference_pre_pr"]
        if "end_to_end" in prior:
            return {"python": prior.get("python"),
                    "scale": prior.get("scale"),
                    "end_to_end": prior["end_to_end"]}
    return {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scale", type=float, default=0.3,
                    help="STAMP workload scale for the end-to-end phase")
    ap.add_argument("--repeats", type=int, default=3,
                    help="repetitions per phase (best-of)")
    ap.add_argument("--micro-n", type=int, default=200_000,
                    help="iterations for the micro phases")
    ap.add_argument("--quick", action="store_true",
                    help="small config for CI smoke (scale 0.1, 20k iters)")
    ap.add_argument("--out", type=Path,
                    default=REPO_ROOT / "BENCH_hotpath.json",
                    help="output JSON path")
    ap.add_argument("--check", type=Path, metavar="BASELINE",
                    help="compare against a committed baseline JSON; "
                         "exit 1 on >2x aggregate event-rate regression")
    ap.add_argument("--reference-from", type=Path, metavar="PRIOR",
                    help="embed PRIOR's own end-to-end (and engine, "
                         "puno_tick, workload_build) numbers as this "
                         "report's reference_pre_pr block (use when "
                         "re-baselining: the prior committed report "
                         "becomes the new pre-optimization reference)")
    args = ap.parse_args(argv)

    scale = 0.1 if args.quick else args.scale
    micro_n = 20_000 if args.quick else args.micro_n

    # Resolve the pre-optimization reference BEFORE the fresh report
    # overwrites args.out; the trajectory (before -> after) stays in
    # the committed record.
    if args.reference_from is not None:
        prior = json.loads(args.reference_from.read_text())
        reference = {
            "note": "end-to-end and micro phases of the prior report "
                    "(this optimization pass's parent)",
            "python": prior.get("python"),
            "scale": prior.get("scale"),
            "end_to_end": prior["end_to_end"],
        }
        for phase in ("event_engine", "batched_drain", "chunked_drain",
                      "puno_tick", "workload_build"):
            if phase in prior.get("phases", {}):
                reference[phase] = prior["phases"][phase]
    else:
        reference = _load_reference(args.out, args.check)

    mesh_repeats = 1 if args.quick else min(args.repeats, 2)
    report = run_benchmarks(scale, args.repeats, micro_n,
                            mesh_repeats=mesh_repeats)
    if reference:
        report["reference_pre_pr"] = reference

    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("engine: " + "  ".join(
        f"{phase} {report['phases'][phase]['events_per_sec']:.0f} ev/s"
        for phase in ("event_engine", "batched_drain", "chunked_drain")))
    tick = report["phases"]["puno_tick"]
    print("puno tick: " + "  ".join(
        f"{n} entries {tick[f'ticks_per_sec_{n}']:.0f} ticks/s"
        for n in PUNO_TICK_SIZES))
    build = report["phases"]["workload_build"]
    print(f"workload build ({build['nodes']} nodes): " + "  ".join(
        f"{n} lines {build[f'ranks_per_sec_{n}']:.0f} ranks/s"
        for n in WORKLOAD_BUILD_LINES))
    grid = report["phases"]["grid_setup"]
    print(f"grid setup: {grid['builds']} workload builds for "
          f"{grid['cells']} cells in {grid['seconds']:.3f} s")
    for size, r in sorted(report["mesh_scaling"].items(),
                          key=lambda kv: int(kv[0])):
        print(f"mesh {size:>5} nodes: {r['events']} events @ "
              f"{r['events_per_sec']:.0f} ev/s  "
              f"peak RSS {r['peak_rss_kb'] / 1024:.0f} MB over imports  "
              f"heap peak {r['py_heap_peak_kb'] / 1024:.1f} MB  "
              f"({'table' if r['route_tables'] else 'computed'} routing)")
    e2e = report["end_to_end"]
    for cell in (f"{w}/{s}" for w, s in TOUR_CELLS):
        r = e2e[cell]
        print(f"{cell}: {r['events']} events @ {r['events_per_sec']:.0f} "
              f"ev/s  snapshot {r['snapshot_sha']}")
    print(f"aggregate: {e2e['aggregate_events_per_sec']:.0f} ev/s")
    print(f"wrote {args.out}")

    if args.check is not None:
        return check_against(report, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
