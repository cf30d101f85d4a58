"""Deterministic coherence-fault injection (Level 1 of the robustness
subsystem; see DESIGN.md §8).

:class:`FaultConfig` describes a seeded injection campaign (drop /
duplicate / delay / reorder rates, globally, per message type or per
(src, dst) pair, plus periodic node stalls); :class:`FaultInjector`
applies it by wrapping ``Network.send``.  Pair with the engine
watchdog (:mod:`repro.sim.watchdog`) so wedged runs surface as
structured :class:`~repro.sim.watchdog.StallReport` objects instead of
burning events forever.
"""

from repro.faults.injector import (
    DUP_SAFE_TYPES,
    FAULT_KINDS,
    RESPONSE_TYPES,
    FaultConfig,
    FaultInjector,
    audits_safe,
    parse_fault_spec,
)

__all__ = [
    "DUP_SAFE_TYPES",
    "FAULT_KINDS",
    "RESPONSE_TYPES",
    "FaultConfig",
    "FaultInjector",
    "audits_safe",
    "parse_fault_spec",
]
