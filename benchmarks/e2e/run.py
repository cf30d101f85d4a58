#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the PUNO reproduction.

Run one workload (the interface ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload paper_eval --seed 0 \\
        --seconds 20 --trace 0

Each *pass* -- one cold run of the workload's whole grid -- runs in a
fresh interpreter with the result cache off.  Passes repeat back to back
(a closed loop, at least :data:`MIN_PASSES`) until ``--seconds`` have
elapsed; host metrics are medians over passes, with host times expressed
in units of calibration samples taken beside them (see ``harness``).
``--trace 1`` instead runs one plain pass, then one pass under cProfile
beside one under tracemalloc, and reports the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count cells, ``metrics`` maps each metric
name to its value and unit.  See README.md in this directory.

Record several seeds of every workload, then compare two records::

    python3 benchmarks/e2e/run.py ledger --seeds 0-9 --out a.json
    python3 benchmarks/e2e/run.py compare a.json b.json
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

import harness  # noqa: E402
from layers import TIMED_LAYERS, UNATTRIBUTED  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: Every run makes at least this many plain passes, so each cell's
#: snapshot digest is compared across two cold runs and setup time is a
#: median of several set-ups.
MIN_PASSES = 2

#: Wall-clock budget of one child interpreter (one pass).
CHILD_TIMEOUT_S = 150

#: Calibrated times read as host seconds on a host where one
#: calibration sample takes this long.
REFERENCE_SAMPLE_S = 0.001


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(values, n=4)`` gives
    them (a single value is its own quartiles)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# =====================================================================
# child processes
# =====================================================================

def _child_env() -> Dict[str, str]:
    """The user's environment minus every REPRO_* switch, plus the
    source tree and the cache off: a pass is always cold, unsanitized
    and uncheckpointed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_NO_CACHE"] = "1"
    return env


def run_child(args: List[str]) -> dict:
    """Run ``run.py <args>`` in a fresh interpreter; its last stdout
    line is a JSON object.  A crash or timeout is returned as
    ``{"error": ...}``.  The child leads a process group of its own, so
    a timeout or interrupt also stops any pool workers it started."""
    cmd = [sys.executable, str(HERE / "run.py")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=str(REPO_ROOT),
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return {"error": f"child {args[:3]} timed out after "
                         f"{CHILD_TIMEOUT_S}s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        return {"error": f"child {args[:3]} exited {proc.returncode}: "
                         + " | ".join(tail)}
    return json.loads(lines[-1])


def child_main(argv: List[str]) -> int:
    """``run.py _pass W SEED MODE SPOOL [--smoke]``."""
    harness.import_entry_points()
    import_s = time.perf_counter() - _T_START
    # the interpreter with the package imported, before any cell
    floor_kb = harness.status_kb()
    workload, seed, mode, spool = argv[1], int(argv[2]), argv[3], argv[4]
    out = harness.run_pass(workload, seed, smoke="--smoke" in argv,
                           mode=mode, spool=Path(spool))
    out.update(import_s=import_s, floor_kb=floor_kb)
    print(json.dumps(out))
    return 0


# =====================================================================
# metrics
# =====================================================================

def _cell_sum(cells: List[dict], key: str) -> int:
    return sum(c.get(key, 0) for c in cells)


def _span_sums(spans: List[dict]) -> Dict[str, float]:
    """Total self seconds per span name."""
    self_s = harness.span_self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + self_s[s["id"]]
    return out


def _span_total(spans: List[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def cell_run_seconds(p: dict) -> Dict[str, float]:
    """label -> host seconds of the cell's ``System.run`` less the
    calibration samples taken inside it, divided by the cell's mean
    sample and scaled to :data:`REFERENCE_SAMPLE_S`."""
    run_s: Dict[str, float] = {}
    for s in p["spans"]:
        dur = s["end"] - s["start"]
        if s["name"] == "system.run":
            run_s[s["cell"]] = run_s.get(s["cell"], 0.0) + dur
        elif s["name"] == "calibrate" and s["parent"] != s["cell"]:
            run_s[s["cell"]] = run_s.get(s["cell"], 0.0) - dur
    return {c["label"]: run_s[c["cell"]] * REFERENCE_SAMPLE_S / c["calib_s"]
            for c in p["cells"] if c["cell"] in run_s}


def work_rate(passes: List[dict]) -> float:
    """Simulated work per calibrated second of ``System.run``.

    The work is the grid's network messages, PUNO timeout ticks and
    issued memory operations (:func:`harness.issued_ops`), all taken
    from ``Stats`` and the workload, so a change that only speeds the
    simulator up leaves it alone.  Each cell's time is its median over
    the passes, in calibration samples (:func:`cell_run_seconds`),
    which cancels drift in the host's speed between and within runs.
    """
    per_label: Dict[str, List[float]] = {}
    for p in passes:
        for label, seconds in cell_run_seconds(p).items():
            per_label.setdefault(label, []).append(seconds)
    cells = passes[0]["cells"]
    work = sum(_cell_sum(cells, key)
               for key in ("messages", "puno_timeouts", "ops"))
    return work / sum(statistics.median(v) for v in per_label.values())


def pass_host_metrics(p: dict) -> Dict[str, float]:
    """Host-side numbers of one plain pass.

    ``setup_s`` is import time plus every workload build and ``System()``
    construction, each in units of the calibration samples nearest to it
    (those at the start of the pass for the import, the cell's own for
    its builds) and scaled to :data:`REFERENCE_SAMPLE_S`.
    ``cell_peak_rss_mb`` is the process's import floor plus the most
    resident memory one cell added to it.
    """
    calib = {c["cell"]: c["calib_s"] for c in p["cells"]}
    setup_s = p["import_s"] * REFERENCE_SAMPLE_S / p["calib_s"]
    for s in p["spans"]:
        if s["name"] in ("workloads.build", "system.build"):
            setup_s += ((s["end"] - s["start"]) * REFERENCE_SAMPLE_S
                        / calib[s["cell"]])
    return {
        "wall_s": p["import_s"] + p["wall_s"],
        "setup_s": setup_s,
        "sim_work_per_s": work_rate([p]),
        "cell_peak_rss_mb": (p["floor_kb"] + max(c["rss_growth_kb"]
                                                 for c in p["cells"])) / 1024,
    }


def simulated_totals(cells: List[dict]) -> Dict[str, float]:
    """Deterministic results of one grid (identical on every pass)."""
    return {
        "abort_rate": _cell_sum(cells, "aborts")
        / _cell_sum(cells, "attempts"),
        "sim_cycles": _cell_sum(cells, "cycles"),
        "traffic_flits": _cell_sum(cells, "flits"),
        "dir_blocked_cycles": _cell_sum(cells, "dir_blocked_cycles"),
    }


def layer_metrics(plain: dict, profiled: dict,
                  traced_mem: dict) -> Dict[str, float]:
    """The per-layer metrics of one traced run: span totals and counts
    from the plain pass, layer shares from the profiled pass, heap peak
    from the tracemalloc pass."""
    cells = plain["cells"]
    sums = _span_sums(plain["spans"])
    run_self = sums.get("system.run", 0.0)
    calib_s = _span_total(plain["spans"], "calibrate")
    # worker-seconds of the plain pass and of its cells, both less the
    # calibration samples
    busy_s = plain["wall_s"] * plain["jobs"] - calib_s
    cell_s = _span_total(plain["spans"], "cell") - calib_s
    split = profiled["layers"]
    total = split["total_s"]
    out: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        share = split["seconds"].get(layer, 0.0) / total
        out[f"{layer}.share"] = share
        # the profiled share applied to the unprofiled pass
        out[f"{layer}.self_s"] = share * busy_s
    out["unattributed.share"] = split["seconds"].get(UNATTRIBUTED, 0.0) / total
    out.update({
        "workloads.build_s": sums.get("workloads.build", 0.0),
        "system.build_s": sums.get("system.build", 0.0),
        "system.run_s": run_self,
        "audit.s": sums.get("audit", 0.0),
        "orchestration.overhead_s": busy_s - cell_s,
        "orchestration.parallel_efficiency": cell_s / busy_s,
        "trace.overhead_x": profiled["wall_s"] / busy_s,
    })
    events = _cell_sum(cells, "events")
    messages = _cell_sum(cells, "messages")
    attempts = _cell_sum(cells, "attempts")
    aborts = _cell_sum(cells, "aborts")
    predictions = (_cell_sum(cells, "puno_correct_predictions")
                   + _cell_sum(cells, "puno_mispredictions"))
    out.update({
        "engine.events": events,
        "engine.us_per_event": 1e6 * run_self / events,
        "network.messages": messages,
        "network.flits_injected": _cell_sum(cells, "flits_injected"),
        "network.ns_per_message": 1e9 * out["network.self_s"] / messages,
        "coherence.dir_requests": _cell_sum(cells, "dir_requests"),
        "coherence.dir_queue_wait_cycles":
            _cell_sum(cells, "dir_queue_wait_cycles"),
        "coherence.l2_misses": _cell_sum(cells, "l2_misses"),
        "coherence.dir_blocked_events":
            _cell_sum(cells, "dir_blocked_events"),
        "htm.tx_attempts": attempts,
        "htm.commit_ratio": _cell_sum(cells, "commits") / attempts,
        "htm.false_abort_share":
            _cell_sum(cells, "false_victims") / aborts if aborts else 0.0,
        "htm.discarded_cycles": _cell_sum(cells, "discarded_cycles"),
        "cm.calls": split["calls"].get("cm", 0),
        "puno.calls": split["calls"].get("puno", 0),
        "puno.timeouts": _cell_sum(cells, "puno_timeouts"),
        "puno.unicasts": _cell_sum(cells, "puno_unicasts"),
        "puno.prediction_accuracy":
            (_cell_sum(cells, "puno_correct_predictions") / predictions
             if predictions else 0.0),
        "puno.notifications": _cell_sum(cells, "puno_notifications"),
        "puno.pbuffer_updates": _cell_sum(cells, "puno_pbuffer_updates"),
        "mem.py_heap_peak_mb": traced_mem["py_heap_peak_bytes"] / 2 ** 20,
        "mem.import_floor_mb": plain["floor_kb"] / 1024,
    })
    return out


# =====================================================================
# correctness
# =====================================================================

def check_passes(passes: List[dict]) -> Dict[str, object]:
    """Count attempted and failed cells over every pass of a run.

    A cell fails if it raised, broke a per-cell check, never finished,
    or its snapshot digest differs from the first pass's: repeats,
    profiling and tracing must all leave the simulation bit-identical.
    A pass whose domain outputs are not finite fails one cell.
    """
    attempted = failed = 0
    errors: List[str] = []
    first: Optional[Dict[str, str]] = None
    for p in passes:
        if "cells" not in p:  # the child itself crashed
            attempted += 1
            failed += 1
            errors.append(p.get("error", "pass crashed"))
            continue
        expected = p["expected_cells"]
        attempted += expected
        ok = [c for c in p["cells"] if c["ok"]]
        failed += expected - len(ok)
        errors += [f"{c['label']}: {c['error']}" for c in p["cells"]
                   if not c["ok"]]
        if p["error"]:
            errors.append(f"pass: {p['error']}")
        elif not harness.outputs_finite(p["outputs"]):
            failed += 1
            errors.append(f"non-finite outputs {p['outputs']}")
        digests = {c["label"]: c["digest"] for c in ok}
        if first is None:
            first = digests
            continue
        for label, digest in digests.items():
            if first.get(label, digest) != digest:
                failed += 1
                errors.append(f"{label}: snapshot digest changed between "
                              f"passes")
    return {"attempted": attempted, "failed": failed, "errors": errors}


def grid_digest(cells: List[dict]) -> str:
    """sha256 over the sorted (label, cell digest) pairs of one grid."""
    pairs = sorted((c["label"], c["digest"] or "") for c in cells)
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


# =====================================================================
# one run
# =====================================================================

def pass_child(workload: str, seed: int, mode: str, smoke: bool) -> dict:
    """One pass in a child interpreter, with a fresh spool directory for
    its pool workers that is removed however the child ends."""
    spool = tempfile.mkdtemp(prefix=".e2e-spool-", dir=REPO_ROOT)
    try:
        return run_child(["_pass", workload, str(seed), mode, spool]
                         + (["--smoke"] if smoke else []))
    finally:
        shutil.rmtree(spool, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """One benchmark run: the full record (per-pass values, metrics of
    the requested kind, correctness, grid digest)."""
    plain: List[dict] = []
    t0 = time.perf_counter()
    while True:
        plain.append(pass_child(workload, seed, "plain", smoke))
        if trace or (len(plain) >= MIN_PASSES
                     and time.perf_counter() - t0 >= seconds):
            break
    traced: List[dict] = []
    if trace:
        # the two traced passes time nothing a metric compares across
        # runs, so they share the host
        with ThreadPoolExecutor(max_workers=2) as pool:
            traced = list(pool.map(
                lambda mode: pass_child(workload, seed, mode, smoke),
                ("profile", "tracemalloc")))
    check = check_passes(plain + traced)
    record = {"workload": workload, "seed": seed, "smoke": smoke,
              "trace": trace, "passes": len(plain),
              "attempted": check["attempted"], "failed": check["failed"],
              "errors": check["errors"]}
    good = [p for p in plain if "cells" in p]
    if check["failed"] or len(good) != len(plain) or any(
            "cells" not in p for p in traced):
        record["correct"] = False
        return record
    per_pass = [pass_host_metrics(p) for p in good]
    host = {k: statistics.median([m[k] for m in per_pass])
            for k in per_pass[0]}
    cells = good[0]["cells"]
    simulated = simulated_totals(cells)
    record.update({
        "correct": True,
        "grid_digest": grid_digest(cells),
        "per_pass": per_pass,
        "outputs": good[0]["outputs"],
        "metrics": {
            "setup_s": host["setup_s"],
            # per-cell medians, steadier than the median of pass rates
            "sim_work_per_s": work_rate(good),
            "cell_peak_rss_mb": host["cell_peak_rss_mb"],
            "abort_rate": simulated.pop("abort_rate"),
        },
        "info": {"wall_s": host["wall_s"], **simulated},
    })
    if trace:
        record["layers"] = layer_metrics(good[0], traced[0], traced[1])
    return record


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def result_line(record: dict, bench: dict) -> dict:
    """The contract's last stdout line for one run."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    source = record.get("layers" if record["trace"] else "metrics", {})
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in bench[kind] if m["name"] in source}
    return {"correct": bool(record["correct"]),
            "attempted": max(1, record["attempted"]),
            "failed": record["failed"], "metrics": metrics}


def print_record(record: dict, bench: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['passes']} plain pass(es), "
          f"{record['attempted']} cells attempted, "
          f"{record['failed']} failed")
    for err in record["errors"][:10]:
        print(f"  error: {err}")
    if not record["correct"]:
        return
    print(f"grid_digest {record['grid_digest']}")
    for name, value in sorted(record["outputs"].items()):
        print(f"output {name} {value:.4f}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, value in record["metrics"].items():
        print(f"metric {name} {value:.6g} {units.get(name, '')}".rstrip())
    for name, value in record["info"].items():
        print(f"info {name} {value:.6g}")
    for name, value in record.get("layers", {}).items():
        print(f"layer {name} {value:.6g}")


# =====================================================================
# ledger and compare
# =====================================================================

def parse_seeds(text: str) -> List[int]:
    """``0-9`` or ``0,3,5``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def ledger_main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(prog="run.py ledger")
    ap.add_argument("--seeds", default="0-9", type=parse_seeds)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    ledger = {"host": {"python": platform.python_version(),
                       "machine": platform.machine(),
                       "cpus": os.cpu_count()},
              "seconds": seconds, "workloads": {}}
    status = 0
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            record = measure(name, seed, seconds, trace=False)
            runs.append(record)
            status |= 0 if record["correct"] else 1
            print(f"{name} seed {seed}: "
                  + ("ok" if record["correct"] else "FAILED")
                  + "".join(f" {k}={v:.4g}"
                            for k, v in record.get("metrics", {}).items()),
                  flush=True)
        ledger["workloads"][name] = {"runs": runs}
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    return status


def _summary(runs: List[dict], metric: str) -> Optional[List[float]]:
    values = [r["metrics"][metric] for r in runs
              if r.get("correct") and metric in r.get("metrics", {})]
    return quartiles(values) if values else None


def repeat_noise(runs: List[dict], metric: str) -> float:
    """How far repeating one input moves a metric: the median over runs
    of (max - min) / median of its per-pass values.  0 for the simulated
    metrics, which repeat exactly."""
    noise = []
    for r in runs:
        values = [m[metric] for m in r.get("per_pass", []) if metric in m]
        if len(values) >= 2:
            noise.append((max(values) - min(values))
                         / statistics.median(values))
    return statistics.median(noise) if noise else 0.0


def verdict(a: float, b: float, better: str, bound: float, noise: float,
            pairs: Sequence[tuple] = ()) -> str:
    """better / worse / same / unresolved for medians ``a`` -> ``b``.

    ``worse`` when B is worse by more than the bound; ``unresolved``
    when repeating one input moves the metric by more than the bound
    (``noise``, see :func:`repeat_noise`); ``better`` when B is better
    by more than that noise and wins at least nine paired seeds in ten.
    """
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b - a) / a
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if gain < -bound:
        return "worse"
    if noise > bound:
        return "unresolved"
    if gain > noise and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def compare_main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    bench = load_benchmark()
    led_a = json.loads(args.a.read_text())
    led_b = json.loads(args.b.read_text())
    flagged = 0
    print(f"{'workload':<18} {'metric':<15} {'A q1/med/q3':>30} "
          f"{'B q1/med/q3':>30} {'noise':>6} {'bound':>6}  verdict")
    for name in led_a["workloads"]:
        if name not in led_b["workloads"]:
            continue
        runs_a = led_a["workloads"][name]["runs"]
        runs_b = led_b["workloads"][name]["runs"]
        by_seed_b = {r["seed"]: r for r in runs_b}
        for m in bench["end_to_end"]:
            qa, qb = _summary(runs_a, m["name"]), _summary(runs_b, m["name"])
            if qa is None or qb is None:
                continue
            pairs = [(r["metrics"][m["name"]],
                      by_seed_b[r["seed"]]["metrics"][m["name"]])
                     for r in runs_a
                     if r.get("correct") and r["seed"] in by_seed_b
                     and by_seed_b[r["seed"]].get("correct")]
            noise = max(repeat_noise(runs_a, m["name"]),
                        repeat_noise(runs_b, m["name"]))
            v = verdict(qa[1], qb[1], m["better"], m["bound"], noise, pairs)
            flagged += v == "worse"
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"{name:<18} {m['name']:<15} {fa:>30} {fb:>30} "
                  f"{noise:>6.3f} {m['bound']:>6.2f}  {v}")
        digests_a = {r["seed"]: r.get("grid_digest") for r in runs_a}
        shared = [s for s in by_seed_b if s in digests_a]
        same = [s for s in shared
                if by_seed_b[s].get("grid_digest") == digests_a[s]]
        flagged += len(same) != len(shared)
        print(f"{name:<18} grid_digest: {len(same)}/{len(shared)} shared "
              f"seeds identical"
              + ("" if len(same) == len(shared)
                 else " -- simulated behaviour changed"))
    return 1 if flagged else 0


# =====================================================================
# entry point
# =====================================================================

def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    if argv and argv[0] == "_pass":
        return child_main(argv)
    # a terminated run still stops its children and removes their spools
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if argv and argv[0] == "ledger":
        return ledger_main(argv[1:])
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="scaled-down grids (harness tests)")
    args = ap.parse_args(argv)
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None \
        else bench["run_seconds"]
    record = measure(args.workload, args.seed, seconds, bool(args.trace),
                     smoke=args.smoke)
    print_record(record, bench)
    print(json.dumps(result_line(record, bench)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
