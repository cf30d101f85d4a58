"""Derived metrics shared by the experiment harnesses."""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable

from repro.sim.stats import Stats


def normalized(value: float, baseline: float) -> float:
    """value / baseline with a defined result for a zero baseline
    (0/0 normalizes to 1.0: both schemes saw nothing)."""
    if baseline == 0:
        return 1.0 if value == 0 else math.inf
    if math.isinf(baseline):
        # an infinite G/D ratio (zero discarded cycles) compares as
        # "equal" to another infinity and dominates any finite value
        return 1.0 if math.isinf(value) else 0.0
    return value / baseline


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0 and math.isfinite(v)]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


# Metric extractors used by the figures and claims; each maps Stats -> value.
METRICS: Dict[str, Callable[[Stats], float]] = {
    "aborts": lambda s: s.tx_aborted,
    "commits": lambda s: s.tx_committed,
    "abort_rate": lambda s: s.abort_rate(),
    "traffic": lambda s: s.flit_router_traversals,
    "exec": lambda s: s.execution_cycles,
    "dir_blocking": lambda s: s.dir_blocked_cycles_txgetx,
    "gd_ratio": lambda s: s.gd_ratio(),
    "false_aborting": lambda s: s.false_aborting_fraction(),
}
