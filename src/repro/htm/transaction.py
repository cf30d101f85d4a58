"""Transaction state: read/write sets, undo log, time-based priority.

Version management is *eager* (LogTM): speculative values are written
in place (the node's L1 holds them in M state) while pre-transaction
values are kept in an undo log.  Abort restores the logged values;
commit simply discards the log.  The per-instance timestamp is assigned
at the first TX_BEGIN of a dynamic instance and retained across
re-executions, which is what makes the time-based policy starvation
free (an instance only ever gets older).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set

from repro.network.message import TxTag


class TxStatus(enum.Enum):
    RUNNING = "running"
    DOOMED = "doomed"  # abort detected, recovery pending
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One attempt (re-execution) of a dynamic transaction instance."""

    __slots__ = (
        "node", "static_id", "instance_id", "timestamp", "read_set",
        "write_set", "undo_log", "_status", "active", "doomed",
        "attempt_start", "attempt", "abort_cause", "stall_cycles",
        "committing",
    )

    def __init__(self, node: int, static_id: int, instance_id: int,
                 timestamp: int, attempt: int, start_cycle: int):
        self.node = node
        self.static_id = static_id
        self.instance_id = instance_id
        self.timestamp = timestamp
        self.read_set: Set[int] = set()
        self.write_set: Set[int] = set()
        self.undo_log: Dict[int, int] = {}  # addr -> pre-tx value
        # ``active``/``doomed`` are plain bools (checked on every
        # memory op and every forwarded probe); the ``status`` property
        # keeps them in sync for the rare lifecycle writes.
        self._status = TxStatus.RUNNING
        self.active = True
        self.doomed = False
        self.attempt_start = start_cycle
        self.attempt = attempt
        self.abort_cause: Optional[str] = None
        # Backoff spent waiting on nacked requests this attempt; the
        # TxLB tracks *running* time, so stall time is excluded both
        # when recording a committed length and when estimating the
        # remaining time for a notification.
        self.stall_cycles = 0
        # A lazy transaction in its commit/publication phase wins every
        # conflict (committer-wins; see repro.htm.lazy).
        self.committing = False

    # ------------------------------------------------------------------
    def tag(self, length_hint: int = 0) -> TxTag:
        """The priority tag attached to this transaction's requests."""
        return TxTag(self.node, self.timestamp, self.static_id, length_hint)

    def record_read(self, addr: int) -> None:
        self.read_set.add(addr)

    def record_write(self, addr: int, old_value: int) -> None:
        """Log the pre-transaction value on the *first* write only."""
        if addr not in self.write_set:
            self.write_set.add(addr)
            self.undo_log[addr] = old_value
        self.read_set.add(addr)  # a write implies read permission

    def touches(self, addr: int) -> bool:
        return addr in self.read_set or addr in self.write_set

    def wrote(self, addr: int) -> bool:
        return addr in self.write_set

    @property
    def status(self) -> TxStatus:
        return self._status

    @status.setter
    def status(self, value: TxStatus) -> None:
        self._status = value
        self.active = value is TxStatus.RUNNING
        self.doomed = value is TxStatus.DOOMED

    def doom(self, cause: str) -> None:
        """Mark the transaction as aborting (recovery happens later)."""
        if self._status is not TxStatus.RUNNING:
            raise AssertionError(f"doom of a {self._status.name} "
                                 f"transaction")
        self._status = TxStatus.DOOMED
        self.active = False
        self.doomed = True
        self.abort_cause = cause

    def footprint(self) -> int:
        return len(self.read_set | self.write_set)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Tx n{self.node} s{self.static_id}i{self.instance_id}"
            f"a{self.attempt} ts={self.timestamp} {self.status.value}>"
        )
