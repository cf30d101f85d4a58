"""Lazy conflict detection (extension).

Section II-B: "conflict detection can be eager or lazy.  The eager
approach detects conflicts progressively as transactions load and
store, whereas the lazy approach postpones detection to the commit
time."  The paper targets eager HTM; this module implements the lazy
alternative so the trade-off — and the hybrid designs of Section V
[8][27][28] — can be studied on the same substrate:

* **Version management**: stores are buffered locally (a write buffer;
  nothing is published and no GETX is issued while executing).  Loads
  snoop the write buffer first, then read shared (GETS) like any
  reader.
* **Commit**: the committer serializes through a global commit token
  (TCC-style ordered commit), then *publishes*: one exclusive request
  per write-set line.  Publication requests carry the ``committing``
  flag and always win — every transactional sharer they reach aborts
  (committer-wins), which is what makes lazy HTM free of both nacks
  and false aborting by construction, at the price of late abort
  detection (work wasted until commit time) and serialized commits.
* **Doom**: an executing lazy transaction aborts when a publication
  invalidates anything it read or buffered.  Aborts are cheap — the
  write buffer is discarded; memory was never touched.

Build a lazy system with ``System(config, workload, cm,
node_cls=LazyNodeController)``; all nodes must be lazy (mixing eager
and lazy nodes is not supported — the committer-wins rule assumes no
eager nacker exists).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.coherence.states import L1State
from repro.htm.node import Mshr, NodeController
from repro.htm.transaction import TxStatus
from repro.network.message import MessageType, TxTag, make_request
from repro.workloads.base import TxOp


class CommitToken:
    """Global commit arbiter: FIFO grant of the single commit token.

    Arbitration latency is idealized (0 cycles beyond queueing); real
    lazy HTMs pay an ordering-network or bus transaction here.
    """

    def __init__(self) -> None:
        self._holder: Optional[int] = None
        self._queue: Deque[Tuple[int, Callable[[], None]]] = deque()
        self.grants = 0
        self.max_queue = 0

    def acquire(self, node: int, grant: Callable[[], None]) -> None:
        if self._holder is None:
            self._holder = node
            self.grants += 1
            grant()
        else:
            self._queue.append((node, grant))
            self.max_queue = max(self.max_queue, len(self._queue))

    def release(self, node: int) -> None:
        if self._holder != node:
            raise AssertionError("release by non-holder")
        if self._queue:
            self._holder, grant = self._queue.popleft()
            self.grants += 1
            grant()
        else:
            self._holder = None

    @property
    def holder(self) -> Optional[int]:
        return self._holder


class LazyNodeController(NodeController):
    """Node with lazy versioning and commit-time publication."""

    __slots__ = ("_write_buffer", "commit_token", "_publishing",
                 "_publish_queue")

    def __init__(self, *args, commit_token: Optional[CommitToken] = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        # addr -> buffered (uncommitted) increments of the current tx
        self._write_buffer: Dict[int, int] = {}
        self.commit_token = commit_token if commit_token is not None \
            else CommitToken()
        self._publishing = False
        self._publish_queue: List[int] = []

    # ------------------------------------------------------------------
    # execution: stores buffer locally, loads read shared
    # ------------------------------------------------------------------
    def _lazy_mode(self) -> bool:
        """Whether the current attempt runs with lazy versioning.

        Always true here; :class:`HybridNodeController` overrides this
        with its per-static-transaction policy."""
        return True

    def _begin_attempt(self) -> None:
        self._write_buffer.clear()
        self._publishing = False
        super()._begin_attempt()

    def _access_op(self, op) -> None:
        tx = self.tx
        if (isinstance(op, TxOp) and tx is not None and tx.active
                and self._lazy_mode() and not self._publishing):
            self._pending = None
            if tx.doomed:
                self._handle_abort()
                return
            if op.is_write:
                # buffer the store; no coherence action now
                tx.write_set.add(op.addr)
                self._write_buffer[op.addr] = \
                    self._write_buffer.get(op.addr, 0) + 1
                self._attempt_increments += 1
                self._finish_op(op)
                return
            if op.addr in self._write_buffer:
                # load forwarded from the write buffer
                tx.record_read(op.addr)
                self._finish_op(op)
                return
        super()._access_op(op)

    # ------------------------------------------------------------------
    # commit: token -> publish write set -> apply buffered values
    # ------------------------------------------------------------------
    def _commit(self) -> None:
        if not self._lazy_mode():
            super()._commit()  # eager attempt: plain commit path
            return
        self._pending = None
        tx = self.tx
        if tx is None:
            raise AssertionError(f"node {self.node}: commit token granted "
                                 f"with no transaction")
        if tx.doomed:
            self._handle_abort()
            return
        if not self._write_buffer:
            super()._commit()  # read-only: commit instantly
            return
        expected = tx
        self.commit_token.acquire(self.node,
                                  lambda: self._start_publish(expected))

    def _start_publish(self, expected_tx) -> None:
        tx = self.tx
        if tx is not expected_tx or tx is None or tx.doomed:
            # killed (or superseded) while queued for the token
            self.commit_token.release(self.node)
            if tx is expected_tx and tx is not None and tx.doomed:
                self._handle_abort()
            return
        self._publishing = True
        tx.committing = True  # unassailable from here to commit
        self._publish_queue = sorted(self._write_buffer)
        self._publish_next()

    def _publish_next(self) -> None:
        tx = self.tx
        if tx is None or not self._publishing:
            raise AssertionError(f"node {self.node}: publish step outside "
                                 f"a commit")
        if not self._publish_queue:
            self._finish_publish()
            return
        addr = self._publish_queue[0]
        line = self.l1.lookup(addr)
        if line is not None and line.state in (L1State.E, L1State.M):
            line.state = L1State.M
            self._apply_publish(addr, line)
            return
        # exclusive request carrying the committing flag
        self._publish_issue(addr)

    def _publish_issue(self, addr: int) -> None:
        if self.mshr is not None:
            raise AssertionError(f"node {self.node}: publish issued with "
                                 f"a request outstanding")
        tx = self.tx
        req_id = next(self._req_seq)
        tag = TxTag(self.node, tx.timestamp, tx.static_id, 0)
        self.mshr = Mshr(req_id, addr, ("publish", addr), True, True,
                         self.sim.now)
        msg = make_request(MessageType.GETX, addr, self.node,
                           self.config.home_node(addr), req_id, tag, True)
        self.network.send(msg, self.config.cache.hit_latency)

    def _apply_publish(self, addr: int, line) -> None:
        line.value += self._write_buffer[addr]
        self._publish_queue.pop(0)
        self.sim.call_later(self.config.cache.hit_latency,
                            self._publish_next)

    def _finish_publish(self) -> None:
        tx = self.tx
        if tx is None:
            raise AssertionError(f"node {self.node}: publish finished "
                                 f"with no transaction")
        self._publishing = False
        self.commit_token.release(self.node)
        tx.status = TxStatus.COMMITTED
        dyn_len = self.sim.now - tx.attempt_start
        self._ns_tx_committed[self.node] += 1
        self._ns_good_cycles[self.node] += dyn_len
        self.txlb.update(tx.static_id, max(1, dyn_len - tx.stall_cycles))
        self.committed_increments += self._attempt_increments
        self.l1.unpin_all(tx.read_set | tx.write_set)
        if self.stats.tracer is not None:
            self.stats.tracer.emit(
                "tx", self.sim.now, event="commit", node=self.node,
                static=tx.static_id, ts=tx.timestamp, cycles=dyn_len,
                reads=len(tx.read_set), writes=len(tx.write_set))
        self.cm.on_commit(self.node, dyn_len)
        self.tx = None
        self._write_buffer.clear()
        self._instance = None
        self._next_item()

    # publication requests complete through the normal MSHR machinery;
    # intercept success/fail for ops tagged ("publish", addr)
    def _finish_request(self, m) -> None:
        if isinstance(m.op, tuple) and m.op[0] == "publish":
            addr = m.op[1]
            grant = m.grant
            if grant is None:
                raise AssertionError(f"node {self.node}: publish of {addr} "
                                     f"completed without a grant")
            if grant.mtype is MessageType.GRANT:
                line = self.l1.lookup(addr, touch=True)
                if line is None:
                    raise AssertionError(f"node {self.node}: published "
                                         f"line {addr} not resident")
                line.state = L1State.M
            else:
                line = self._install(addr, L1State.M, grant.value)
            tx = self.tx
            if tx is None or tx.doomed:
                # doomed mid-publish cannot happen (committer wins and
                # holds the token), but settle coherence defensively
                self._publishing = False
                self.commit_token.release(self.node)
                if tx is not None and tx.doomed:
                    self._handle_abort()
                return
            self._apply_publish(addr, line)
            return
        super()._finish_request(m)

    def _failed_request(self, m) -> None:
        if isinstance(m.op, tuple) and m.op[0] == "publish":
            # a publication can only be nacked by a *non-transactional*
            # race loser or a stale forward; retry quickly
            self._op_retries += 1
            sim = self.sim
            self._pending = self._timer = sim.rearm(
                self._timer, sim.now + self.config.htm.nack_backoff,
                self._publish_retry, (m.op[1],))
            return
        super()._failed_request(m)

    def _publish_retry(self, addr: int) -> None:
        self._pending = None
        tx = self.tx
        if tx is None or not self._publishing:
            return
        self._publish_next()

    # ------------------------------------------------------------------
    # lazy aborts: discard the buffer (memory was never touched)
    # ------------------------------------------------------------------
    def _self_abort(self, cause: str) -> None:
        tx = self.tx
        if tx is None or not tx.active:
            raise AssertionError(f"node {self.node}: abort of no active "
                                 f"transaction")
        if self._publishing:
            raise AssertionError("committer must not be aborted")
        if self._lazy_mode():
            # no undo log to restore: clear the buffer and fall through
            # to the shared bookkeeping with an empty log
            tx.undo_log.clear()
            self._write_buffer.clear()
        super()._self_abort(cause)


class HybridNodeController(LazyNodeController):
    """SELTM-style selective eager-lazy management ([28], the authors'
    prior work; also the hybrid designs of Section V [8][27]).

    Every static transaction starts in eager mode (early detection,
    minimal discarded work).  A static transaction that keeps aborting
    — evidence that eager execution is burning work on conflicts — is
    switched to lazy execution, where its stores stay private until a
    token-ordered commit.  ``lazy_threshold`` aborts flip the switch.
    """

    __slots__ = ("lazy_threshold", "_abort_counts", "_lazy_attempt",
                 "lazy_attempts", "eager_attempts")

    def __init__(self, *args, lazy_threshold: int = 3, **kwargs):
        super().__init__(*args, **kwargs)
        self.lazy_threshold = lazy_threshold
        self._abort_counts: Dict[int, int] = {}
        self._lazy_attempt = False
        self.lazy_attempts = 0
        self.eager_attempts = 0

    def _lazy_mode(self) -> bool:
        return self._lazy_attempt

    def _begin_attempt(self) -> None:
        inst = self._instance
        if inst is None:
            raise AssertionError(
                f"node {self.node}: attempt begins with no instance")
        count = self._abort_counts.get(inst.static_id, 0)
        self._lazy_attempt = count >= self.lazy_threshold
        if self._lazy_attempt:
            self.lazy_attempts += 1
        else:
            self.eager_attempts += 1
        super()._begin_attempt()

    def _self_abort(self, cause: str) -> None:
        tx = self.tx
        if tx is None:
            raise AssertionError(f"node {self.node}: abort of no "
                                 f"transaction")
        self._abort_counts[tx.static_id] = \
            self._abort_counts.get(tx.static_id, 0) + 1
        super()._self_abort(cause)