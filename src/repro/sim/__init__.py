"""Discrete-event simulation substrate.

This package replaces the SIMICS/GEMS cycle-accurate full-system
simulator used by the paper with an event-driven, cycle-granularity
simulator.  Components schedule callbacks on a shared
:class:`~repro.sim.engine.Simulator`; all latencies are expressed in
integer cycles taken from :class:`~repro.sim.config.SystemConfig`
(Table II of the paper).
"""

from repro.sim.engine import Simulator, Event
from repro.sim.config import (
    CacheConfig,
    NetworkConfig,
    HTMConfig,
    PUNOConfig,
    SystemConfig,
)
from repro.sim.stats import Stats, Histogram
from repro.sim.rng import RngFactory
from repro.sim.resultcache import (
    CacheCorruption,
    ResultCache,
    default_cache,
)
from repro.sim.watchdog import (
    StallError,
    StallReport,
    Watchdog,
    WatchdogConfig,
)

__all__ = [
    "CacheCorruption",
    "ResultCache",
    "default_cache",
    "StallError",
    "StallReport",
    "Watchdog",
    "WatchdogConfig",
    "Simulator",
    "Event",
    "CacheConfig",
    "NetworkConfig",
    "HTMConfig",
    "PUNOConfig",
    "SystemConfig",
    "Stats",
    "Histogram",
    "RngFactory",
]
