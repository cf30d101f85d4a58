"""The scheme registry and the built-in scheme set.

The pre-plug-in designs (baseline/backoff/rmw/puno/ats, the ats+puno
composition, and the lazy version-management variant) are re-expressed
here as registered :class:`~repro.schemes.base.Scheme` plug-ins.  The
factories reproduce the old ``System._make_cm`` construction exactly —
same classes, same shared-RNG composition for ``ats+puno``, same
``avg_c2c`` plumbing for PUNO backoff — so every golden digest is
bit-identical to the ad-hoc wiring it replaces (proven by
``tests/test_golden.py``).

The two new contenders (``phase-priority``, ``adaptive-requeue``) live
in their own modules and self-register on import; the package
``__init__`` imports them so the registry is complete whenever
``repro.schemes`` is.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterator, List, Tuple

from repro.htm.contention import (
    ATSScheduler,
    FixedBackoff,
    PUNOBackoff,
    RandomBackoff,
    RMWPredictor,
)
from repro.schemes.base import Scheme

_REGISTRY: Dict[str, Scheme] = {}


def register_scheme(scheme: Scheme, replace: bool = False) -> Scheme:
    """Add a scheme to the registry (rejects silent redefinition)."""
    if scheme.name in _REGISTRY and not replace:
        raise ValueError(f"scheme {scheme.name!r} already registered")
    _REGISTRY[scheme.name] = scheme
    return scheme


def unregister_scheme(name: str) -> None:
    """Remove a scheme (test cleanup for ad-hoc registrations)."""
    del _REGISTRY[name]


def get_scheme(name: str) -> Scheme:
    scheme = _REGISTRY.get(name)
    if scheme is None:
        raise KeyError(f"unknown scheme {name!r}; choices: "
                       f"{sorted(_REGISTRY)}")
    return scheme


def list_schemes() -> List[Scheme]:
    """All registered schemes, sorted by name."""
    return [s for _, s in sorted(_REGISTRY.items())]


def scheme_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


class _NeedsPunoView(Mapping):
    """Live ``name -> needs_puno`` view of the registry.

    Exported to :mod:`repro.scenarios.spec` under the historical
    ``KNOWN_SCHEMES`` name, so scenario validation and per-cell config
    construction track registrations (including test-local ones)
    instead of a frozen snapshot.
    """

    def __getitem__(self, name: str) -> bool:
        return get_scheme(name).needs_puno

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(_REGISTRY))

    def __len__(self) -> int:
        return len(_REGISTRY)


NEEDS_PUNO = _NeedsPunoView()


# =====================================================================
# built-in contention-manager factories
# (config, stats, rng stream, avg cache-to-cache latency) -> CM
# =====================================================================

def cm_fixed(config, stats, rng, avg_c2c=0):
    return FixedBackoff(config, stats, rng)


def cm_random_backoff(config, stats, rng, avg_c2c=0):
    return RandomBackoff(config, stats, rng)


def cm_rmw(config, stats, rng, avg_c2c=0):
    return RMWPredictor(config, stats, rng)


def cm_puno(config, stats, rng, avg_c2c=0):
    return PUNOBackoff(config, stats, rng, avg_c2c=avg_c2c)


def cm_ats(config, stats, rng, avg_c2c=0):
    return ATSScheduler(config, stats, rng)


def cm_ats_puno(config, stats, rng, avg_c2c=0):
    # the paper argues proactive scheduling is complementary to PUNO;
    # this composition lets the claims table test it.  Both layers share
    # one stream, exactly like the pre-plug-in wiring.
    inner = PUNOBackoff(config, stats, rng, avg_c2c=avg_c2c)
    return ATSScheduler(config, stats, rng, inner=inner)


# =====================================================================
# built-in registrations
# =====================================================================

register_scheme(Scheme(
    name="baseline",
    description="Eager LogTM-style HTM, fixed 20-cycle NACK backoff",
    citation="IPDPS 2014 (the paper's base design)",
    cm_factory=cm_fixed,
))

register_scheme(Scheme(
    name="backoff",
    description="Randomized linear backoff growing with the "
                "consecutive-abort count",
    citation="Scherer & Scott [17]",
    cm_factory=cm_random_backoff,
))

register_scheme(Scheme(
    name="rmw",
    description="RMW predictor: loads that start read-modify-write "
                "sequences request exclusive permission up front",
    citation="Bobba et al. [5]",
    cm_factory=cm_rmw,
))

register_scheme(Scheme(
    name="puno",
    description="PUNO: P-Buffer unicast prediction + notification-"
                "guided backoff",
    citation="IPDPS 2014",
    cm_factory=cm_puno,
    needs_puno=True,
))

register_scheme(Scheme(
    name="ats",
    description="Adaptive transaction scheduling: contention-intensity "
                "EWMA gates admission through a ticket queue",
    citation="Yoo & Lee, SPAA 2008",
    cm_factory=cm_ats,
))

register_scheme(Scheme(
    name="ats+puno",
    description="ATS admission control layered over PUNO's notification "
                "backoff (complementary-mechanisms composition)",
    citation="IPDPS 2014 + SPAA 2008",
    cm_factory=cm_ats_puno,
    needs_puno=True,
))

register_scheme(Scheme(
    name="lazy",
    description="Lazy version management: write-buffered transactions, "
                "commit-token-serialized publication",
    citation="TCC-style (Hammond et al.)",
    cm_factory=cm_fixed,
    version="lazy",
))
