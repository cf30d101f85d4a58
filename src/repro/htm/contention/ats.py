"""ATS-style adaptive transaction scheduling (extension).

The paper positions proactive contention management — ATS [29] and the
Bloom-filter schedulers [30] — as orthogonal and complementary to PUNO.
This module implements an ATS-like scheduler so that claim can be
tested (the ``Ext. ATS`` rows of :mod:`repro.analysis.claims`):

* each node keeps a *contention intensity* CI, an exponential moving
  average of its transaction outcomes (1 for an abort, 0 for a
  commit);
* a node whose CI exceeds the threshold stops dispatching optimistically
  and instead serializes its restarts through a central scheduling
  queue, modeled as a ticket lock over estimated transaction slots.

Combine with PUNO by constructing ``ATSScheduler(..., inner=PUNOBackoff
(...))`` — nack backoff delegates to the inner manager, so the two
mechanisms compose exactly as the paper suggests.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.htm.contention.base import ContentionManager
from repro.sim.config import SystemConfig
from repro.sim.stats import Stats


class ATSScheduler(ContentionManager):
    name = "ats"

    def __init__(self, config: SystemConfig, stats: Stats,
                 rng: Optional[random.Random] = None,
                 alpha: float = 0.75, threshold: float = 0.5,
                 inner: Optional[ContentionManager] = None):
        super().__init__(config, stats, rng)
        self.alpha = alpha
        self.threshold = threshold
        self.inner = inner
        self._ci: List[float] = [0.0] * config.num_nodes
        # central ticket queue: next cycle at which a serialized
        # transaction may start
        self._next_free: int = 0
        # EWMA of committed transaction lengths (the serialization slot)
        self._slot: float = float(config.htm.random_backoff_slot)
        self.serialized = 0

    # ------------------------------------------------------------------
    def contention_intensity(self, node: int) -> float:
        return self._ci[node]

    def on_commit(self, node: int, length: int = 0) -> None:
        self._ci[node] = self.alpha * self._ci[node]
        if length > 0:
            self._slot = (self._slot + length) / 2.0
        if self.inner is not None:
            self.inner.on_commit(node, length)

    def on_abort(self, node: int) -> None:
        self._ci[node] = self.alpha * self._ci[node] + (1 - self.alpha)
        if self.inner is not None:
            self.inner.on_abort(node)

    def on_tx_begin(self, node: int) -> None:
        if self.inner is not None:
            self.inner.on_tx_begin(node)

    # ------------------------------------------------------------------
    def restart_backoff(self, node: int, consecutive_aborts: int) -> int:
        now = self.sim.now if self.sim is not None else 0
        if self._ci[node] > self.threshold:
            # serialize: take a ticket for one transaction slot
            start = max(now, self._next_free)
            self._next_free = start + int(self._slot)
            self.serialized += 1
            return start - now
        if self.inner is not None:
            return self.inner.restart_backoff(node, consecutive_aborts)
        return 0

    def nack_backoff(self, node: int, retries: int, t_est: int,
                     is_tx: bool) -> int:
        if self.inner is not None:
            return self.inner.nack_backoff(node, retries, t_est, is_tx)
        return super().nack_backoff(node, retries, t_est, is_tx)

    # RMW hooks delegate so ATS can wrap any inner manager
    def predict_exclusive_load(self, node: int, pc: int) -> bool:
        if self.inner is not None:
            return self.inner.predict_exclusive_load(node, pc)
        return False

    def train_load(self, node: int, pc: int, addr: int) -> None:
        if self.inner is not None:
            self.inner.train_load(node, pc, addr)

    def train_store(self, node: int, addr: int) -> None:
        if self.inner is not None:
            self.inner.train_store(node, addr)
