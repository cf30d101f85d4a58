"""Phase-priority directory arbitration (arXiv 1305.3038).

Phase-Priority Directory Coherence observes that a directory draining
a blocked line's wait queue in strict FIFO order is blind to *what* the
waiters are doing: a committing lazy transaction (whose success
retires work) queues behind a freshly-restarted young polluter, and an
old transaction (which the timestamp order will eventually favour
anyway) queues behind requests it is doomed to abort.  The arbiter
here reorders the drain by request *phase*:

1. **committing** requests first — a ``committing`` GETX is the last
   obstacle between a transaction and retirement, so servicing it
   converts queued work into progress immediately;
2. **transactional** requests next, oldest first (the same
   ``TxTag.older_than`` total order conflict resolution uses, so
   arbitration and abort decisions pull in the same direction);
3. **non-transactional** requests last.

Within a class the original arrival order is kept (FIFO tiebreak), so
the policy is work-conserving and starvation-free: a waiter's priority
class never decreases, and within its class it only moves forward.

The contention-manager axis stays the fixed-backoff baseline — the
scheme isolates the directory-forward policy so tournament deltas
against ``baseline`` measure arbitration alone.
"""

from __future__ import annotations

from repro.sim.config import SystemConfig
from repro.schemes.base import DirArbiter, Scheme
from repro.schemes.registry import cm_fixed, register_scheme

#: Priority classes (smaller = served earlier).
PHASE_COMMITTING = 0
PHASE_TRANSACTIONAL = 1
PHASE_NONTRANSACTIONAL = 2


class PhasePriorityArbiter(DirArbiter):
    """Selects the highest-priority waiter from a blocked line's queue.

    The key is a total order: phase class, then (for transactional
    waiters) the requester's timestamp/node tag, then arrival cycle,
    then queue index — no two waiters compare equal, so the drain
    order is fully determined (the Hypothesis property suite proves
    antisymmetry/totality over arbitrary queues).
    """

    name = "phase-priority"

    def __init__(self, config: SystemConfig):
        self.config = config
        # Scheme-local telemetry lives on the arbiter, NOT on Stats:
        # Stats.snapshot() covers every public attribute, so a new
        # Stats field would perturb every scheme's golden digest.
        self.selections = 0
        self.reordered = 0

    @staticmethod
    def priority_key(msg, arrived: int, idx: int):
        if msg.committing:
            return (PHASE_COMMITTING, arrived, idx)
        tx = msg.tx
        if tx is not None:
            return (PHASE_TRANSACTIONAL, tx.timestamp, tx.node,
                    arrived, idx)
        return (PHASE_NONTRANSACTIONAL, arrived, idx)

    def select(self, waitq, now: int):
        if len(waitq) == 1:
            return waitq.popleft()
        best = 0
        msg, arrived = waitq[0]
        best_key = self.priority_key(msg, arrived, 0)
        for i in range(1, len(waitq)):
            msg, arrived = waitq[i]
            key = self.priority_key(msg, arrived, i)
            if key < best_key:
                best_key = key
                best = i
        self.selections += 1
        if best == 0:
            return waitq.popleft()
        self.reordered += 1
        item = waitq[best]
        del waitq[best]
        return item


register_scheme(Scheme(
    name="phase-priority",
    description="Directory drains blocked-line wait queues by phase: "
                "committing requests, then transactional oldest-first, "
                "then non-transactional (FIFO within class)",
    citation="arXiv:1305.3038",
    cm_factory=cm_fixed,
    arbiter_factory=PhasePriorityArbiter,
))
