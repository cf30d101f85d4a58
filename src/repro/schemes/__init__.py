"""Pluggable protocol schemes (see :mod:`repro.schemes.base`).

Importing this package completes the registry: the built-ins register
in :mod:`repro.schemes.registry`, and the two new contenders
self-register on import below.  ``repro.schemes.tournament`` (the
head-to-head scenario matrix) is deliberately *not* imported here —
it depends on :mod:`repro.scenarios.spec`, which imports this package
for its scheme table.
"""

from repro.schemes.base import DirArbiter, Scheme
from repro.schemes.registry import (
    get_scheme,
    list_schemes,
    register_scheme,
    scheme_names,
    unregister_scheme,
)
from repro.schemes import adaptive_requeue as _adaptive_requeue  # noqa: F401
from repro.schemes import phase_priority as _phase_priority  # noqa: F401
from repro.schemes.adaptive_requeue import AdaptiveRequeue
from repro.schemes.phase_priority import PhasePriorityArbiter

__all__ = [
    "AdaptiveRequeue",
    "DirArbiter",
    "PhasePriorityArbiter",
    "Scheme",
    "get_scheme",
    "list_schemes",
    "register_scheme",
    "scheme_names",
    "unregister_scheme",
]
