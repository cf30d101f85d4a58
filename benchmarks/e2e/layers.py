"""Module -> layer map and cProfile self-time attribution.

Every module under ``src/repro`` belongs to exactly one layer (the
harness tests enforce full coverage, so a new module must be placed
here before the benchmark accepts it).  The traced pass charges each
profiled function's self time to its module's layer.  Functions outside
the package -- C builtins such as ``heapq.heappush``, stdlib helpers,
dataclass-generated ``__init__`` methods -- have no layer of their own:
their self time is split over their callers in proportion to the self
time each call edge carried, recursively, until it reaches package
code.  What never reaches package code is reported as ``unattributed``.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from pathlib import Path
from typing import Dict, Optional, Tuple

#: (path prefix relative to ``src/repro``, layer); the first match wins,
#: so more specific prefixes come first.
LAYER_MAP: Tuple[Tuple[str, str], ...] = (
    ("sim/engine.py", "engine"),
    ("sim/stats.py", "stats"),
    ("sim/resultcache.py", "orchestration"),
    ("sim/", "system"),
    ("network/", "network"),
    # bitset.py is the sharer-mask representation the directories use
    # on every invalidation; it carries no PUNO state.
    ("core/bitset.py", "coherence"),
    ("core/", "puno"),
    ("coherence/", "coherence"),
    ("htm/contention/", "cm"),
    ("schemes/", "cm"),
    ("htm/", "htm"),
    ("workloads/", "workloads"),
    ("analysis/", "orchestration"),
    ("scenarios/", "orchestration"),
    ("system.py", "system"),
    ("faults/", "tooling"),
    ("sanitize/", "tooling"),
    ("lint/", "tooling"),
    ("cli.py", "tooling"),
    ("testing.py", "tooling"),
    ("__init__.py", "tooling"),
    ("__main__.py", "tooling"),
)

#: Layers whose time the per-layer metrics report (``<layer>.self_s``
#: and ``<layer>.share``).
TIMED_LAYERS = ("engine", "network", "coherence", "htm", "cm", "puno",
                "stats")

UNATTRIBUTED = "unattributed"


def layer_of_relpath(relpath: str) -> Optional[str]:
    """Layer of a module path relative to ``src/repro`` (None if the
    map does not place it)."""
    for prefix, layer in LAYER_MAP:
        if relpath == prefix or (prefix.endswith("/")
                                 and relpath.startswith(prefix)):
            return layer
    return None


def package_relpath(filename: str) -> Optional[str]:
    """``sim/engine.py`` for ``.../src/repro/sim/engine.py``; None for
    files outside the package."""
    parts = Path(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and i > 0 and parts[i - 1] == "src":
            return "/".join(parts[i + 1:])
    return None


def layer_of_file(filename: str) -> Optional[str]:
    rel = package_relpath(filename)
    return layer_of_relpath(rel) if rel is not None else None


# pstats entry: (primitive calls, total calls, self time, cumulative
# time, {caller key: (calls, primitive calls, self time, cum time)}).
_Key = Tuple[str, int, str]

# Caller chains through non-package code are short (stdlib helpers,
# generated dataclass methods); a chain longer than this is cut and
# counted as unattributed rather than walked.
_MAX_DEPTH = 16


def attribute(stats: pstats.Stats) -> Tuple[Dict[str, float],
                                            Dict[str, int], float]:
    """Split profiled self time over layers.

    Returns ``(seconds per layer, calls per layer, total seconds)``;
    seconds include ``unattributed``.
    """
    raw = stats.stats
    layer_cache: Dict[_Key, Optional[str]] = {}

    def own_layer(key: _Key) -> Optional[str]:
        if key not in layer_cache:
            layer_cache[key] = layer_of_file(key[0])
        return layer_cache[key]

    split_cache: Dict[_Key, Dict[str, float]] = {}

    def split(key: _Key, visiting: frozenset) -> Dict[str, float]:
        """Fractions of ``key``'s self time owed to each layer."""
        layer = own_layer(key)
        if layer is not None:
            return {layer: 1.0}
        if key in split_cache:
            return split_cache[key]
        callers = raw[key][4] if key in raw else {}
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: float(v[0]) for c, v in callers.items()}
            total = sum(weights.values())
        out: Dict[str, float] = defaultdict(float)
        if total <= 0 or len(visiting) > _MAX_DEPTH:
            out[UNATTRIBUTED] = 1.0
        else:
            inner = visiting | {key}
            for caller, w in weights.items():
                if caller in inner:
                    out[UNATTRIBUTED] += w / total
                    continue
                for layer, frac in split(caller, inner).items():
                    out[layer] += frac * w / total
        result = dict(out)
        if not visiting:
            split_cache[key] = result
        return result

    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    total_s = 0.0
    for key, (_cc, nc, tt, _ct, _callers) in raw.items():
        total_s += tt
        layer = own_layer(key)
        if layer is not None:
            calls[layer] += nc
            seconds[layer] += tt
            continue
        for lay, frac in split(key, frozenset()).items():
            seconds[lay] += tt * frac
    return dict(seconds), dict(calls), total_s
