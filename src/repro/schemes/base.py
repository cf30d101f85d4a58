"""Scheme plug-in base types.

A *scheme* is one point in the protocol design space, decomposed into
orthogonal policies, each stated once:

* **directory forward policy** — how a home directory picks the next
  waiter when a blocked line unblocks (plain FIFO drain, or the
  :class:`DirArbiter` an ``arbiter_factory`` builds to reorder the
  wait queue),
* **contention manager** — the backoff/abort/prediction policy every
  node consults (``cm_factory`` builds one
  :class:`~repro.htm.contention.base.ContentionManager` per system),
* **version management** — eager (in-place update + undo log, the
  default :class:`~repro.htm.node.NodeController`) or lazy
  (write-buffered :class:`~repro.htm.lazy.LazyNodeController`),
* **PUNO hardware** — ``needs_puno`` builds a P-Buffer at each
  directory and turns on NACK notification at each node; it is the
  only switch for them.

``System`` resolves a scheme *name* through the registry
(:mod:`repro.schemes.registry`) and asks the scheme for its
policies.  Adding a scheme is one
:func:`~repro.schemes.registry.register_scheme` call — the scenario
validator, the tournament matrix, the conformance suite and the golden
``scheme_digests`` section all pick it up automatically.

Determinism contract: every scheme draws randomness only from the
seeded stream handed to ``cm_factory`` (derived from the config seed
via :class:`~repro.sim.rng.RngFactory`, stream name ``cm:<scheme>``).
A scheme that touched the global :mod:`random` module would perturb
replay and chaos runs; the ``sim-rng`` lint rule covers
``repro/schemes/`` to keep that impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.htm.contention.base import ContentionManager
from repro.sim.config import SystemConfig
from repro.sim.rng import RngFactory
from repro.sim.stats import Stats

#: ``cm_factory`` signature: (config, stats, seeded rng stream,
#: average cache-to-cache latency) -> ContentionManager.
CMFactory = Callable[..., ContentionManager]

#: Version-management axis values.
VERSION_EAGER = "eager"
VERSION_LAZY = "lazy"


class DirArbiter:
    """Directory forward policy: picks the next waiter to service.

    ``select`` receives the blocked entry's wait queue — a deque of
    ``(message, arrival_cycle)`` pairs — and must remove and return
    exactly one pair.  The base class is the FIFO drain the MESI
    directory uses by default; ``System`` passes ``None`` instead of
    an instance for FIFO schemes so the hot loop keeps its bare
    ``popleft()``.
    """

    name = "fifo"

    def select(self, waitq, now: int):
        return waitq.popleft()


@dataclass(frozen=True)
class Scheme:
    """One registered protocol variant (see module docstring).

    ``name`` doubles as the RNG stream suffix (``cm:<name>``) and the
    scenario/CLI scheme identifier; renaming a scheme therefore
    changes its digests.  ``citation`` names the paper the policy
    reproduces (shown in ``README``'s scheme table).
    """

    name: str
    description: str
    cm_factory: CMFactory
    citation: str = ""
    needs_puno: bool = False
    version: str = VERSION_EAGER
    arbiter_factory: Optional[Callable[[SystemConfig], DirArbiter]] = None

    def __post_init__(self) -> None:
        if self.version not in (VERSION_EAGER, VERSION_LAZY):
            raise ValueError(
                f"scheme {self.name!r}: version must be "
                f"{VERSION_EAGER!r} or {VERSION_LAZY!r}, got "
                f"{self.version!r}")

    # ------------------------------------------------------------------
    def make_cm(self, config: SystemConfig, stats: Stats,
                avg_c2c: int = 0) -> ContentionManager:
        """Build this scheme's contention manager.

        The RNG stream name is keyed by the *scheme* name (the
        historical ``cm:<name>`` naming), so the registered built-ins
        stay bit-identical to the golden digests.
        """
        rng = RngFactory(config.seed).stream(f"cm:{self.name}")
        return self.cm_factory(config, stats, rng, avg_c2c)

    def make_arbiter(self, config: SystemConfig) -> Optional[DirArbiter]:
        """The directory arbiter instance, or None for FIFO drain."""
        if self.arbiter_factory is None:
            return None
        return self.arbiter_factory(config)

    def resolve_node_cls(self):
        """The node-controller class of the version-management axis
        (None means the eager default)."""
        if self.version == VERSION_LAZY:
            from repro.htm.lazy import LazyNodeController
            return LazyNodeController
        return None
