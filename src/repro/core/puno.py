"""Directory-side PUNO unit (Section III-B/C/E).

One unit per directory (home node).  It owns the P-Buffer, which is
also the rollover counter the engine ticks, maintains each entry's UD
pointer after services, decides when a transactional GETX can be
unicast, and applies misprediction feedback relayed on UNBLOCK
messages.

The rollover counter's timeout period adapts to transaction behaviour:
every transactional request carries the requester's current
static-transaction length estimate (``TxTag.length_hint``), and the
unit keeps an exponential moving average of those hints — this is the
"average transaction length obtained from a hardware mechanism" the
paper uses to set the period.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.pbuffer import PBuffer
from repro.core.udpointer import recompute_ud
from repro.network.message import Message
from repro.sim.config import PUNOConfig
from repro.sim.engine import Simulator
from repro.sim.stats import (DECLINE_COMMITTING, DECLINE_DISABLED,
                             DECLINE_NO_TAG, DECLINE_REQUESTER_OLDER,
                             DECLINE_SHORT_NACKER, DECLINE_UD_NONE,
                             Stats)


class DirectoryPUNO:
    """P-Buffer + UD-pointer + unicast prediction for one directory."""

    def __init__(self, sim: Simulator, num_nodes: int, config: PUNOConfig,
                 stats: Stats):
        self.sim = sim
        self.config = config
        self.stats = stats
        self.pbuffer = PBuffer(num_nodes, config)
        self._avg_tx_len: float = float(config.min_timeout)
        # The P-Buffer is the rollover counter: the engine bumps its
        # decay count every period (recomputed only where _avg_tx_len
        # changes), with no callback — see the rollover section below.
        self.pbuffer.period = self._timeout_period()
        stats.add_rollover_counter(self.pbuffer)
        sim.arm(self.pbuffer)

    # ------------------------------------------------------------------
    # critical-path latency the directory charges for prediction
    # ------------------------------------------------------------------
    @property
    def predict_latency(self) -> int:
        return self.config.predict_latency

    # ------------------------------------------------------------------
    # P-Buffer updates from incoming coherence traffic
    # ------------------------------------------------------------------
    def observe_request(self, msg: Message) -> None:
        """Every transactional request refreshes the sender's priority."""
        tag = msg.tx
        if tag is None:
            return
        prev = self.pbuffer.update(tag.node, tag.timestamp, tag.length_hint,
                                   self.sim.now)
        self.stats.puno_pbuffer_updates += 1
        # Adaptive timeout: track the average transaction (attempt)
        # length.  Requests carry the sender's TxLB estimate; before
        # TxLBs warm up, fall back to priority-change deltas (timestamps
        # are begin cycles, so a change brackets an instance lifetime).
        if tag.length_hint > 0:
            self._avg_tx_len = (self._avg_tx_len + tag.length_hint) / 2.0
            self.pbuffer.period = self._timeout_period()
        elif prev is not None and tag.timestamp > prev:
            self._avg_tx_len = (self._avg_tx_len + (tag.timestamp - prev)) / 2.0
            self.pbuffer.period = self._timeout_period()

    # ------------------------------------------------------------------
    # unicast destination prediction
    # ------------------------------------------------------------------
    def predict_unicast(self, entry, msg: Message,
                        targets: Tuple[int, ...]) -> Optional[int]:
        """Return the unicast destination for a transactional GETX,
        or None to multicast as usual.

        The prediction fires only when the entry's UD pointer names a
        current sharer whose (fresh) priority beats the requester's.
        """
        declines = self.stats._puno_decline_counts
        if not self.config.unicast_enabled:
            declines[DECLINE_DISABLED] += 1
            return None
        tag = msg.tx
        if tag is None:
            declines[DECLINE_NO_TAG] += 1
            return None
        if msg.committing:
            # lazy commit-time publications always win; probing them
            # away would only delay the committer
            declines[DECLINE_COMMITTING] += 1
            return None
        ud = entry.ud
        if not self._ud_valid(entry, ud, targets):
            # The stored pointer is a fast path; when it is stale or
            # names the requester itself (upgrade), re-derive the best
            # candidate from the sharer set the directory is already
            # reading — the same off-critical-path computation that
            # maintains the pointer, applied at service time.
            readers = (entry.tx_readers if self.config.reader_epoch_filter
                       else None)
            ud = recompute_ud(targets, self.pbuffer, readers, self.sim.now)
            if ud is None:
                declines[DECLINE_UD_NONE] += 1
                return None
        hint = self.pbuffer.length(ud)
        if 0 < hint < self.config.min_nacker_length:
            # Probe cost/benefit: a nacker shorter than the probe's own
            # round trip cannot pay for the unicast detour.
            declines[DECLINE_SHORT_NACKER] += 1
            return None
        key = self.pbuffer.key(ud)
        if key is not None and key < (tag.timestamp, tag.node):
            if self.stats.tracer is not None:
                self.stats.tracer.emit(
                    "puno", self.sim.now, event="unicast", addr=msg.addr,
                    target=ud, requester=tag.node, req_ts=tag.timestamp,
                    target_ts=key[0])
            return ud
        declines[DECLINE_REQUESTER_OLDER] += 1
        return None

    def _ud_valid(self, entry, ud: Optional[int],
                  targets: Tuple[int, ...]) -> bool:
        if ud is None or ud not in targets:
            return False
        if not self.pbuffer.usable(ud, self.sim.now):
            return False
        if self.config.reader_epoch_filter:
            added_ts = entry.tx_readers.get(ud)
            if added_ts is None or added_ts != self.pbuffer.priority(ud):
                return False
        return True

    # ------------------------------------------------------------------
    # feedback and pointer maintenance
    # ------------------------------------------------------------------
    def feedback_mispredict(self, node: int) -> None:
        """UNBLOCK carried MP feedback: drop the stale priority."""
        self.pbuffer.invalidate(node)
        self.stats.puno_pbuffer_invalidations += 1
        if self.stats.tracer is not None:
            self.stats.tracer.emit("puno", self.sim.now,
                                   event="mp_feedback", node=node)

    def after_service(self, entry) -> None:
        """Recompute the UD pointer (off the critical path)."""
        readers = entry.tx_readers if self.config.reader_epoch_filter else None
        entry.ud = recompute_ud(entry.sharers, self.pbuffer, readers,
                                self.sim.now)

    # ------------------------------------------------------------------
    # rollover timeout
    # ------------------------------------------------------------------
    # The timeout is the P-Buffer itself, armed on the engine as a
    # PeriodicCounter: each tick is still one engine event, because
    # puno_timeouts is digested and the tick's heap sequence number
    # orders it within its cycle, so no tick is elided or merged into
    # another.  The drain loop does the whole tick (the decay is the
    # O(1) count bump), so no Python frame runs per tick, and it queues
    # the directories that tick in lockstep as one heap entry, so a
    # cycle of ticks costs one pop and one push.  While they share one
    # period and all run, that entry fires in one pass, a bare count
    # bump per directory, sanitized or not; a re-timed or stopped
    # directory sends its cycle through the per-tick loop.
    # This unit only sets the period and stops the counter.
    def _timeout_period(self) -> int:
        c = self.config
        if not c.adaptive_timeout:
            return c.fixed_timeout
        period = int(self._avg_tx_len * c.timeout_scale)
        return max(c.min_timeout, min(period, c.max_timeout))

    def stop(self) -> None:
        """Stop rescheduling timeouts so the event heap can drain.  The
        tick count is final from here (the last, inert firing does not
        count), so it moves into the stats."""
        if self.pbuffer.active:
            self.pbuffer.active = False
            self.stats.retire_rollover_counter(self.pbuffer)
