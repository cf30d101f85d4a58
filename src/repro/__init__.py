"""repro — reproduction of PUNO (Zhao, Chen & Draper, IPDPS 2014).

"Mitigating the Mismatch between the Coherence Protocol and Conflict
Detection in Hardware Transactional Memory."

The package is a from-scratch, protocol-level simulator of a 16-core
CMP with MESI directory coherence, an eager log-based HTM, a 2D-mesh
on-chip network — and the paper's contribution, **PUNO** (Predictive
Unicast and Notification), plus the three comparator contention
managers used in the evaluation.

Quickstart::

    from repro import SystemConfig, make_stamp_workload, run_workload

    config = SystemConfig()                       # Table II baseline
    wl = make_stamp_workload("intruder")
    base = run_workload(config, wl, cm="baseline")
    puno = run_workload(config, wl, cm="puno")    # builds the PUNO units
    print(base.stats.tx_aborted, "->", puno.stats.tx_aborted)
"""

from repro.sim.config import (
    CacheConfig,
    HTMConfig,
    NetworkConfig,
    PUNOConfig,
    SystemConfig,
    small_config,
)
from repro.faults import FaultConfig, FaultInjector
from repro.sim.stats import Stats
from repro.sim.watchdog import (
    StallError,
    StallReport,
    Watchdog,
    WatchdogConfig,
)
from repro.system import (
    CoherenceViolation,
    RunResult,
    System,
    run_workload,
)
from repro.workloads import (
    Workload,
    make_stamp_workload,
    make_synthetic_workload,
)
from repro.workloads.stamp import HIGH_CONTENTION, STAMP_WORKLOADS
from repro.core.hw_model import estimate_overhead

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "HTMConfig",
    "NetworkConfig",
    "PUNOConfig",
    "SystemConfig",
    "small_config",
    "Stats",
    "System",
    "RunResult",
    "CoherenceViolation",
    "run_workload",
    "FaultConfig",
    "FaultInjector",
    "StallError",
    "StallReport",
    "Watchdog",
    "WatchdogConfig",
    "Workload",
    "make_stamp_workload",
    "make_synthetic_workload",
    "STAMP_WORKLOADS",
    "HIGH_CONTENTION",
    "estimate_overhead",
    "__version__",
]
