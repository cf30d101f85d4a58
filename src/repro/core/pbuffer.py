"""Transaction Priority Buffer (P-Buffer), Section III-B.

Each directory holds N entries — one per node — recording the latest
transaction priority (timestamp) observed from that node's coherence
requests.  A 2-bit validity counter per entry and a directory-wide
rollover timeout implement staleness control (Fig. 5):

* on timeout, every non-zero validity counter is decremented;
* on a priority update, the counter is incremented — twice when it was
  0, "to allow a longer timeout period";
* only entries with validity greater than the threshold (1) are used
  for unicast prediction.

The counters are kept lazily, so a timeout costs O(1) instead of a
sweep over all N entries.  The buffer counts timeouts in ``decays``
and each entry stores ``_expiry``, the value of ``decays`` at which
its counter reaches 0; the counter is read as
``max(0, _expiry - decays)``.  This is the same automaton: a timeout
bumps ``decays``, which lowers every positive counter by one and
leaves a zero counter at zero (``_expiry <= decays`` stays true); an
update reads the current counter, computes the new value ``v`` exactly
as Fig. 5 does and stores ``decays + v``; an invalidation stores
``decays``, a zero counter.  The usability test ``validity > threshold`` becomes
``_expiry > threshold + decays``, which is exact because the threshold
is never negative, so a clamped-to-zero counter never passes it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim.config import PUNOConfig


class PBuffer:
    """Fixed-size {node -> (priority, validity)} table."""

    def __init__(self, num_nodes: int, config: PUNOConfig):
        if num_nodes > config.pbuffer_entries:
            raise ValueError(
                f"P-Buffer has {config.pbuffer_entries} entries for "
                f"{num_nodes} nodes"
            )
        if config.validity_threshold < 0:
            raise ValueError(
                f"validity_threshold {config.validity_threshold} < 0")
        self.config = config
        self.num_nodes = num_nodes
        self._priority: List[Optional[int]] = [None] * num_nodes
        # decay count at which each entry's validity counter reaches 0
        self._expiry: List[int] = [0] * num_nodes
        # advertised expected length of the recorded transaction (the
        # requester's TxLB estimate, carried on every request); 0 when
        # unknown.  Drives the expected-lifetime staleness check.
        self._length: List[int] = [0] * num_nodes
        # cycle of the last update per entry (liveness evidence: a
        # stalled-but-live transaction keeps polling and refreshing)
        self._touched: List[int] = [0] * num_nodes
        self.updates = 0
        self.invalidations = 0
        self.decays = 0

    # ------------------------------------------------------------------
    def update(self, node: int, timestamp: int,
               length_hint: int = 0, now: int = 0) -> Optional[int]:
        """Record the latest transaction priority seen from ``node``.

        Returns the previous timestamp (None on first sight) so the
        caller can observe priority *changes* — the timestamp delta of
        two successive transactions measures transaction lifetime,
        which drives the adaptive rollover timeout.
        """
        prev = self._priority[node]
        self._priority[node] = timestamp
        self._length[node] = length_hint
        self._touched[node] = now
        v = self._expiry[node] - self.decays
        v = v + 1 if v > 0 else 2
        self._expiry[node] = self.decays + min(v, self.config.validity_max)
        self.updates += 1
        return prev

    def invalidate(self, node: int) -> None:
        """Misprediction feedback: drop the stale priority."""
        self._expiry[node] = self.decays
        self._priority[node] = None
        self._length[node] = 0
        self.invalidations += 1

    def decay(self) -> None:
        """Rollover timeout: age every non-zero validity counter."""
        self.decays += 1

    # ------------------------------------------------------------------
    def usable(self, node: int, now: Optional[int] = None) -> bool:
        """Entry is fresh enough for unicast prediction.

        With ``now``, also applies the expected-lifetime check: an
        entry older than ``lifetime_factor`` x its own advertised
        transaction length almost certainly describes a transaction
        that already committed (the staleness mode that dominates
        short-transaction workloads, where the validity counters alone
        are too coarse).
        """
        ts = self._priority[node]
        if (ts is None or self._expiry[node]
                <= self.config.validity_threshold + self.decays):
            return False
        if now is not None and self.config.lifetime_factor > 0:
            # A recently refreshed entry is live regardless of age: a
            # stalled-but-running transaction keeps polling, so its
            # wall-clock age can far exceed the advertised *active*
            # length.  Only age-gate entries that have gone silent.
            if now - self._touched[node] > self.config.recency_window:
                hint = self._length[node]
                if hint > 0 and (now - ts) > self.config.lifetime_factor * hint:
                    return False
        return True

    def priority(self, node: int) -> Optional[int]:
        return self._priority[node]

    def validity(self, node: int) -> int:
        return max(0, self._expiry[node] - self.decays)

    def key(self, node: int) -> Optional[Tuple[int, int]]:
        """Total-order priority key (timestamp, node); smaller = older."""
        ts = self._priority[node]
        return None if ts is None else (ts, node)

    def length(self, node: int) -> int:
        """Advertised transaction length of the recorded entry (0 =
        unknown)."""
        return self._length[node]
