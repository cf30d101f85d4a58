"""cProfile wrapper with simulator-aware accounting.

``repro profile`` runs one workload/scheme cell under cProfile and
reports three views future perf work actually needs:

* **top functions** by cumulative time (the classic pstats view,
  restricted to repro code plus the heapq built-ins the engine leans
  on);
* **per-event-callback** time: every function the event loop invoked
  directly (identified from the pstats caller graph as being called by
  the engine's drain loops, ``Simulator._drain``/``_drain_until``),
  with call counts and the cumulative time charged under it — this is
  the event-mix view, "which callbacks cost what";
* **per-message-type** counts from ``stats.messages_by_type``, so the
  callback costs can be read against the traffic mix that produced
  them.

Everything is returned as a :class:`ProfileReport` that renders to
text or JSON.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Dict, List, Optional, Tuple


#: The engine's event loops (``Simulator._drain``/``_drain_until``):
#: every event callback is called from one of them.
_DRAIN_LOOPS = ("_drain", "_drain_until")


def _is_repro(filename: str) -> bool:
    return "repro" in filename.replace("\\", "/").split("/")


class ProfileReport:
    """Profile of one simulated run."""

    def __init__(self, workload: str, scheme: str, events: int,
                 wall_seconds: float,
                 top_cumulative: List[Dict[str, object]],
                 callbacks: List[Dict[str, object]],
                 messages_by_type: Dict[str, int]):
        self.workload = workload
        self.scheme = scheme
        self.events = events
        self.wall_seconds = wall_seconds
        self.events_per_sec = events / wall_seconds if wall_seconds else 0.0
        self.top_cumulative = top_cumulative
        self.callbacks = callbacks
        self.messages_by_type = messages_by_type

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "events_per_sec": self.events_per_sec,
            "top_cumulative": self.top_cumulative,
            "event_callbacks": self.callbacks,
            "messages_by_type": dict(sorted(
                self.messages_by_type.items(),
                key=lambda kv: -kv[1])),
        }

    def render_text(self) -> str:
        lines = [
            f"profile: {self.workload}/{self.scheme} — {self.events} "
            f"events in {self.wall_seconds:.3f}s "
            f"({self.events_per_sec:.0f} ev/s under the profiler)",
            "",
            "top functions (cumulative):",
            f"  {'cum s':>8} {'tot s':>8} {'calls':>9}  function",
        ]
        for row in self.top_cumulative:
            lines.append(
                f"  {row['cumtime']:>8.3f} {row['tottime']:>8.3f} "
                f"{row['calls']:>9}  {row['function']}")
        lines += [
            "",
            "event callbacks (invoked by Simulator.run):",
            f"  {'cum s':>8} {'events':>9}  callback",
        ]
        for row in self.callbacks:
            lines.append(
                f"  {row['cumtime']:>8.3f} {row['events']:>9}  "
                f"{row['callback']}")
        lines += ["", "messages by type:"]
        for name, count in sorted(self.messages_by_type.items(),
                                  key=lambda kv: -kv[1]):
            lines.append(f"  {count:>9}  {name}")
        return "\n".join(lines)


def profile_run(workload, config, scheme: str, top: int = 15,
                max_cycles: Optional[int] = None) -> ProfileReport:
    """Run ``workload`` under ``scheme`` with cProfile attached."""
    from repro.system import System

    system = System(config, workload, scheme)
    run_kwargs = {}
    if max_cycles is not None:
        run_kwargs["max_cycles"] = max_cycles
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    result = system.run(**run_kwargs)
    prof.disable()
    wall = time.perf_counter() - t0

    stats = pstats.Stats(prof)
    stats.calc_callees()

    # --- top cumulative, repro code + heapq -------------------------
    def _label(key: Tuple[str, int, str]) -> str:
        filename, lineno, name = key
        if filename.startswith("~") or filename.startswith("<"):
            return name
        parts = filename.replace("\\", "/").split("/")
        short = "/".join(parts[parts.index("repro"):]) \
            if "repro" in parts else parts[-1]
        return f"{short}:{lineno}({name})"

    rows = []
    for key, (cc, nc, tt, ct, callers) in stats.stats.items():
        filename, _, name = key
        interesting = _is_repro(filename) or "heapq" in name
        if not interesting:
            continue
        rows.append({"function": _label(key), "calls": nc,
                     "tottime": round(tt, 4), "cumtime": round(ct, 4)})
    rows.sort(key=lambda r: -r["cumtime"])
    top_rows = rows[:top]

    # --- per-event-callback accounting ------------------------------
    # A callback is any repro function outside the engine whose caller
    # graph includes one of the engine's drain loops; the per-caller
    # tuple gives exactly the calls and cumulative time charged from
    # the event loop.
    loop_keys = {key for key in stats.stats
                 if key[2] in _DRAIN_LOOPS and key[0].endswith("engine.py")}
    callbacks = []
    for key, (cc, nc, tt, ct, callers) in stats.stats.items():
        if not _is_repro(key[0]) or key[0].endswith("engine.py"):
            continue
        from_loop = [v for c, v in callers.items() if c in loop_keys]
        if not from_loop:
            continue
        events = sum(v[1] for v in from_loop)  # nc per caller
        cum = sum(v[3] for v in from_loop)  # ct charged under the loop
        callbacks.append({"callback": _label(key), "events": events,
                          "cumtime": round(cum, 4)})
    callbacks.sort(key=lambda r: -r["cumtime"])

    by_type = {str(k): int(v)
               for k, v in result.stats.messages_by_type.items()}
    return ProfileReport(
        workload=workload.name, scheme=scheme,
        events=system.sim.events_processed, wall_seconds=wall,
        top_cumulative=top_rows, callbacks=callbacks[:top],
        messages_by_type=by_type)


__all__ = ["ProfileReport", "profile_run"]
