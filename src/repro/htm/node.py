"""Node controller: in-order core + private L1 + transactional unit.

One controller per node.  The core executes its :class:`Program`
sequentially with one outstanding miss at a time (blocking, 1-IPC-class
model matching the paper's in-order SPARC cores).  The controller also
answers forwarded coherence requests at any time — that is where eager
conflict detection happens — and implements the requester side of the
blocking-directory protocol (response collection, UNBLOCK duties, and
the false-aborting classification of Figs. 2–3).

Abort/commit mechanics follow LogTM/FASTM: eager version management
with an undo log held against the L1 (speculative values live in M
lines, pre-transaction values in the log), fast hardware abort recovery
charged as ``base + per_entry x |write_set|`` cycles, and a retained
per-instance timestamp so the time-based policy is starvation free.
"""

from __future__ import annotations

import itertools
from typing import Callable, ClassVar, Dict, List, Optional

from repro.coherence.cache import CapacityError, L1Cache
from repro.coherence.states import L1State
from repro.core.txlb import TxLB
from repro.htm.conflict import Decision, check_fwd_gets, check_fwd_getx
from repro.htm.contention.base import ContentionManager
from repro.htm.transaction import Transaction, TxStatus
from repro.network.message import (Message, MessageType, TxTag, make_ack,
                                   make_data, make_nack, make_request,
                                   make_unblock)
from repro.network.network import Network
from repro.sim.config import SystemConfig
from repro.sim.engine import Event, Simulator
from repro.sim.stats import Stats
from repro.workloads.base import Gap, NonTxOp, Program, TxInstance, TxOp


class Mshr:
    """The single outstanding miss/upgrade of this node."""

    __slots__ = ("req_id", "addr", "op", "exclusive", "is_tx", "grant",
                 "expected", "acks", "aborted_acks", "nacks", "issued_at")

    def __init__(self, req_id: int, addr: int, op, exclusive: bool,
                 is_tx: bool, issued_at: int):
        self.req_id = req_id
        self.addr = addr
        self.op = op
        self.exclusive = exclusive
        self.is_tx = is_tx
        self.grant: Optional[Message] = None
        self.expected: Optional[int] = None
        self.acks = 0
        self.aborted_acks = 0
        self.nacks: List[Message] = []
        self.issued_at = issued_at

    def max_t_est(self) -> int:
        return max((n.t_est for n in self.nacks), default=-1)

    def mp_node(self) -> int:
        for n in self.nacks:
            if n.mp_bit:
                return n.src
        return -1


class NodeController:
    """Core + L1 + TX unit of one node."""

    # More attributes than CPython's 30-key limit for key-sharing
    # instance dicts: without slots each node carries a private ~1.6 KB
    # dict and every ``self.x`` is a dict lookup.  Subclasses declare
    # their own additions.
    __slots__ = (
        "sim", "node", "config", "network", "stats", "nstats",
        "_ns_tx_started", "_ns_tx_attempts", "_ns_tx_committed",
        "_ns_tx_aborted", "_ns_good_cycles", "_ns_discarded_cycles",
        "_ns_backoff_cycles", "_ns_stall_cycles", "_ns_nacks_received",
        "_ns_nacks_sent", "_abort_causes",
        "cm", "program", "on_done", "txlb", "san", "fault_tolerant",
        "_train_load", "_train_store", "_predict_excl",
        "_hit_latency", "_begin_cost", "_commit_cost", "_num_nodes",
        "l1", "mshr", "wb_buffer", "wb_waiters",
        "tx", "_instance", "_instance_ts", "_instance_seq", "_attempt",
        "_consecutive_aborts", "_op_idx", "_op_retries", "_item_idx",
        "_capacity_aborts_row", "_prev_footprint", "_pending", "_timer",
        "_req_seq", "done", "committed_increments", "_attempt_increments",
    )

    # Message dispatch by method name: ``System._make_endpoint``
    # resolves it against each instance once, at wiring time (so
    # subclass overrides win), into the network's flat dispatch list.
    HANDLERS: ClassVar[Dict[MessageType, str]] = {
        MessageType.DATA: "_mshr_response",
        MessageType.DATA_EXCL: "_mshr_response",
        MessageType.GRANT: "_mshr_response",
        MessageType.ACK: "_mshr_response",
        MessageType.NACK: "_mshr_response",
        MessageType.FWD_GETX: "_handle_fwd_getx",
        MessageType.FWD_GETS: "_handle_fwd_gets",
        MessageType.PUT_ACK: "_handle_put_ack",
    }

    def __init__(self, sim: Simulator, node: int, config: SystemConfig,
                 network: Network, stats: Stats, cm: ContentionManager,
                 program: Program,
                 on_done: Optional[Callable[[int], None]] = None,
                 txlb: Optional[TxLB] = None):
        self.sim = sim
        self.node = node
        self.config = config
        self.network = network
        self.stats = stats
        self.nstats = stats.nodes[node]  # write-through view (cold paths)
        # Per-node SoA hot bindings: the counters live in flat arrays
        # on Stats (see repro.sim.stats), so each bump below is one
        # list-element increment, not a view-property round trip.
        self._ns_tx_started = stats._ns_tx_started
        self._ns_tx_attempts = stats._ns_tx_attempts
        self._ns_tx_committed = stats._ns_tx_committed
        self._ns_tx_aborted = stats._ns_tx_aborted
        self._ns_good_cycles = stats._ns_good_cycles
        self._ns_discarded_cycles = stats._ns_discarded_cycles
        self._ns_backoff_cycles = stats._ns_backoff_cycles
        self._ns_stall_cycles = stats._ns_stall_cycles
        self._ns_nacks_received = stats._ns_nacks_received
        self._ns_nacks_sent = stats._ns_nacks_sent
        self._abort_causes = stats._ns_aborts_by_cause[node]
        self.cm = cm
        self.program = program
        self.on_done = on_done
        self.txlb = txlb if txlb is not None else TxLB(config.puno.txlb_entries)
        self.san = None  # Optional[repro.sanitize.sanitizer.ProtocolSanitizer]
        # Set by an attached FaultInjector: injected duplicates/delays
        # can deliver responses for requests that already completed, so
        # stale responses are counted and dropped instead of asserting.
        self.fault_tolerant = False

        # Hot-path specializations: the RMW-predictor hooks are pure
        # no-ops on most contention managers — resolve that once here so
        # per-access sites pay a None check instead of a method call.
        cm_cls = type(cm)
        base = ContentionManager
        self._train_load = (cm.train_load
                            if cm_cls.train_load is not base.train_load
                            else None)
        self._train_store = (cm.train_store
                             if cm_cls.train_store is not base.train_store
                             else None)
        self._predict_excl = (
            cm.predict_exclusive_load
            if cm_cls.predict_exclusive_load is not base.predict_exclusive_load
            else None)
        # Per-access config scalars, hoisted out of the op loop.
        self._hit_latency = config.cache.hit_latency
        self._begin_cost = config.htm.begin_cost
        self._commit_cost = config.htm.commit_cost
        self._num_nodes = config.num_nodes

        self.l1 = L1Cache(config.cache)
        self.mshr: Optional[Mshr] = None
        self.wb_buffer: Dict[int, int] = {}  # limbo: addr -> dirty value
        self.wb_waiters: Dict[int, List[Callable[[], None]]] = {}

        self.tx: Optional[Transaction] = None
        self._instance: Optional[TxInstance] = None
        self._instance_ts: int = -1
        self._instance_seq = 0
        self._attempt = 0
        self._consecutive_aborts = 0
        self._op_idx = 0
        self._op_retries = 0
        self._item_idx = 0
        self._capacity_aborts_row = 0
        # Footprint of the previous aborted attempt of the current
        # instance.  Re-execution replays the same ops, so a line read
        # by the last attempt *will* be read again: a unicast probe for
        # it is answered as a true conflict, not a misprediction.
        self._prev_footprint: frozenset = frozenset()
        # ``_pending`` is the queued op timer (None while no timer is
        # armed); ``_timer`` keeps the last handle, which
        # ``Simulator.rearm`` reuses once its event has run.
        self._pending: Optional[Event] = None
        self._timer = Event()
        self._req_seq = itertools.count()
        self.done = False

        # atomicity audit: increments applied by committed work only
        self.committed_increments = 0
        self._attempt_increments = 0

    # ==================================================================
    # program execution
    # ==================================================================
    def start(self) -> None:
        self.sim.call_later(0, self._next_item)

    def _next_item(self) -> None:
        if self._item_idx >= len(self.program):
            if not self.done:
                self.done = True
                if self.on_done is not None:
                    self.on_done(self.node)
            return
        item = self.program[self._item_idx]
        self._item_idx += 1
        if isinstance(item, Gap):
            self.sim.call_later(item.cycles, self._next_item)
        elif isinstance(item, NonTxOp):
            self._op_retries = 0
            sim = self.sim
            self._pending = self._timer = sim.rearm(
                self._timer, sim.now + item.think, self._access_op, (item,))
        elif isinstance(item, TxInstance):
            self._instance = item
            self._instance_ts = -1
            self._attempt = 0
            self._consecutive_aborts = 0
            self._prev_footprint = frozenset()
            self._begin_attempt()
        else:  # pragma: no cover
            raise TypeError(f"bad program item {item!r}")

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def _begin_attempt(self) -> None:
        inst = self._instance
        if inst is None:
            raise AssertionError(
                f"node {self.node}: attempt begins with no instance")
        if self._instance_ts < 0:
            # Timestamp assigned once per dynamic instance, retained
            # across re-executions (time-based policy, Section II-B).
            self._instance_ts = self.sim.now
            self._ns_tx_started[self.node] += 1
            self._instance_seq += 1
        self._attempt += 1
        self._ns_tx_attempts[self.node] += 1
        self.tx = Transaction(
            node=self.node, static_id=inst.static_id,
            instance_id=self._instance_seq, timestamp=self._instance_ts,
            attempt=self._attempt, start_cycle=self.sim.now,
        )
        if self.stats.tracer is not None:
            self.stats.tracer.emit(
                "tx", self.sim.now, event="begin", node=self.node,
                static=inst.static_id, ts=self._instance_ts,
                attempt=self._attempt)
        self._attempt_increments = 0
        self._op_idx = 0
        self._op_retries = 0
        self.cm.on_tx_begin(self.node)
        sim = self.sim
        self._pending = self._timer = sim.rearm(
            self._timer, sim.now + self._begin_cost, self._run_op, ())

    def _run_op(self) -> None:
        self._pending = None
        tx = self.tx
        if tx is None:
            return
        if tx.doomed:
            self._handle_abort()
            return
        inst = self._instance
        if inst is None:
            raise AssertionError(
                f"node {self.node}: transaction runs with no instance")
        sim = self.sim
        if self._op_idx >= len(inst.ops):
            self._pending = self._timer = sim.rearm(
                self._timer, sim.now + self._commit_cost, self._commit, ())
            return
        op = inst.ops[self._op_idx]
        self._op_retries = 0
        self._pending = self._timer = sim.rearm(
            self._timer, sim.now + op.think, self._access_op, (op,))

    def _commit(self) -> None:
        self._pending = None
        tx = self.tx
        if tx is None:
            raise AssertionError(f"node {self.node}: commit with no "
                                 f"transaction")
        if tx.doomed:
            # A conflict landed during the commit window.
            self._handle_abort()
            return
        tx.status = TxStatus.COMMITTED
        if self.san is not None:
            self.san.check_undo_log(self, tx)
        dyn_len = self.sim.now - tx.attempt_start
        self._ns_tx_committed[self.node] += 1
        self._ns_good_cycles[self.node] += dyn_len
        # TxLB tracks the *running* length; stall time is not running.
        self.txlb.update(tx.static_id, max(1, dyn_len - tx.stall_cycles))
        if self.san is not None:
            self.san.check_txlb(self, self.txlb)
        self.committed_increments += self._attempt_increments
        self.l1.unpin_all(tx.read_set | tx.write_set)
        if self.stats.tracer is not None:
            self.stats.tracer.emit(
                "tx", self.sim.now, event="commit", node=self.node,
                static=tx.static_id, ts=tx.timestamp, cycles=dyn_len,
                reads=len(tx.read_set), writes=len(tx.write_set))
        self.cm.on_commit(self.node, dyn_len)
        self.tx = None
        self._instance = None
        self._next_item()

    # ------------------------------------------------------------------
    # abort machinery
    # ------------------------------------------------------------------
    def _self_abort(self, cause: str) -> None:
        """Detect an abort *now*: restore values, drop isolation.

        Recovery cost and restart are charged in :meth:`_handle_abort`,
        which runs at the next control point (or immediately when the
        core is idle in think/backoff).
        """
        tx = self.tx
        if tx is None or not tx.active:
            raise AssertionError(f"node {self.node}: abort of no active "
                                 f"transaction")
        if self.san is not None:
            self.san.check_undo_log(self, tx)
        tx.doom(cause)
        self._ns_discarded_cycles[self.node] += self.sim.now - tx.attempt_start
        self._abort_causes[cause] += 1
        self._prev_footprint = frozenset(tx.read_set | tx.write_set)
        if self.stats.tracer is not None:
            self.stats.tracer.emit(
                "tx", self.sim.now, event="abort", node=self.node,
                static=tx.static_id, ts=tx.timestamp, cause=cause,
                attempt=tx.attempt,
                wasted=self.sim.now - tx.attempt_start)
        # Undo-log restore: logged lines are local (pinned, E/M).
        for addr, old in tx.undo_log.items():
            line = self.l1.lookup(addr, touch=False)
            if line is None:
                raise AssertionError(f"node {self.node}: undo target "
                                     f"{addr} not resident")
            line.value = old
        self._attempt_increments = 0
        self.l1.unpin_all(tx.read_set | tx.write_set)
        # Wake the core if it is sleeping in think/backoff; if a request
        # is outstanding, completion will notice the doomed flag.
        if self.mshr is None and self._pending is not None:
            self._pending.cancel()
            self._pending = None
            self.sim.call_later(0, self._maybe_handle_abort, tx)

    def _maybe_handle_abort(self, doomed_tx: Transaction) -> None:
        if self.tx is doomed_tx and doomed_tx.doomed:
            self._handle_abort()

    def _handle_abort(self) -> None:
        tx = self.tx
        if tx is None or not tx.doomed:
            raise AssertionError(f"node {self.node}: abort handling "
                                 f"without a doomed transaction")
        tx.status = TxStatus.ABORTED
        self._ns_tx_aborted[self.node] += 1
        self._consecutive_aborts += 1
        if tx.abort_cause == "capacity":
            self._capacity_aborts_row += 1
            if self._capacity_aborts_row > 3:
                raise RuntimeError(
                    f"node {self.node}: transaction {tx.static_id} write "
                    f"set exceeds L1 way capacity (set conflict); this "
                    f"simulator requires write sets to fit one L1 set "
                    f"({self.config.cache.ways} ways)")
        else:
            self._capacity_aborts_row = 0
        self.cm.on_abort(self.node)
        htm = self.config.htm
        recovery = htm.abort_base_cost + htm.abort_per_entry_cost * len(tx.write_set)
        backoff = self.cm.restart_backoff(self.node, self._consecutive_aborts)
        self._ns_backoff_cycles[self.node] += backoff
        self.tx = None
        sim = self.sim
        time = sim.now + recovery + backoff
        self._pending = self._timer = sim.rearm(
            self._timer, time, self._begin_attempt, ())

    # ==================================================================
    # memory access path
    # ==================================================================
    def _access_op(self, op) -> None:
        self._pending = None
        tx = self.tx
        is_tx_op = isinstance(op, TxOp)
        if is_tx_op:
            if tx is None:
                return  # instance already torn down
            if tx.doomed:
                self._handle_abort()
                return
        addr = op.addr
        if addr in self.wb_buffer:
            # The line is mid-writeback; wait for the PUT_ACK.
            self.wb_waiters.setdefault(addr, []).append(
                lambda: self._access_op(op))
            return
        line = self.l1.lookup(addr)
        if op.is_write:
            if line is not None and line.state >= 2:  # writable: E/M
                line.state = L1State.M  # silent E -> M upgrade
                self._apply_write(op, line)
                self._finish_op(op)
            else:
                self._issue(op, exclusive=True)
        else:
            if line is not None and line.state > 0:  # readable: S/E/M
                self._apply_read(op, line)
                self._finish_op(op)
            else:
                exclusive = bool(
                    is_tx_op and self._predict_excl is not None
                    and self._predict_excl(self.node, op.pc)
                )
                self._issue(op, exclusive=exclusive)

    def _apply_read(self, op, line) -> None:
        if isinstance(op, TxOp) and self.tx is not None:
            addr = line.addr
            self.tx.record_read(addr)
            self.l1.pin(addr, level=1)
            if self._train_load is not None:
                self._train_load(self.node, op.pc, addr)

    def _apply_write(self, op, line) -> None:
        if isinstance(op, TxOp) and self.tx is not None:
            addr = line.addr
            self.tx.record_write(addr, line.value)
            self.l1.pin(addr, level=2)
            if self._train_store is not None:
                self._train_store(self.node, addr)
            line.value += 1
            self._attempt_increments += 1
        else:
            line.value += 1
            self.committed_increments += 1

    def _finish_op(self, op) -> None:
        sim = self.sim
        time = sim.now + self._hit_latency
        if isinstance(op, TxOp):
            self._op_idx += 1
            self._pending = self._timer = sim.rearm(
                self._timer, time, self._run_op, ())
        else:
            self._pending = self._timer = sim.rearm(
                self._timer, time, self._next_item, ())

    # ------------------------------------------------------------------
    # request issue / retry
    # ------------------------------------------------------------------
    def _issue(self, op, exclusive: bool) -> None:
        if self.mshr is not None:
            raise AssertionError(f"node {self.node}: second outstanding "
                                 f"request (one per node)")
        addr = op.addr
        is_tx_op = isinstance(op, TxOp)
        tag: Optional[TxTag] = None
        tx = self.tx
        if is_tx_op and tx is not None:
            hint = self.txlb.average_length(tx.static_id) or 0
            tag = TxTag(tx.node, tx.timestamp, tx.static_id, hint)
        req_id = next(self._req_seq)
        self.mshr = Mshr(req_id, addr, op, exclusive, tag is not None,
                         self.sim.now)
        mtype = MessageType.GETX if exclusive else MessageType.GETS
        msg = make_request(mtype, addr, self.node, addr % self._num_nodes,
                           req_id, tag)
        self.network.send(msg, self._hit_latency)

    def _retry(self, op) -> None:
        self._pending = None
        if isinstance(op, TxOp):
            tx = self.tx
            if tx is None:
                return
            if tx.doomed:
                self._handle_abort()
                return
        # Re-evaluate from the cache: state may have changed meanwhile.
        self._access_op(op)

    # ==================================================================
    # incoming messages
    # ==================================================================
    def receive(self, msg: Message) -> None:
        name = self.HANDLERS.get(msg.mtype)
        if name is None:  # pragma: no cover - protocol bug guard
            raise ValueError(f"node {self.node} got {msg}")
        getattr(self, name)(msg)

    # ------------------------------------------------------------------
    # requester side: response collection
    # ------------------------------------------------------------------
    def _mshr_response(self, msg: Message) -> None:
        m = self.mshr
        if m is None or msg.req_id != m.req_id:
            if self.fault_tolerant:
                self.stats.stale_responses_dropped += 1
                return
            raise AssertionError(
                f"stale response {msg} at node {self.node}")
        if self.san is not None:
            self.san.check_ubit_response(self, msg)
        mtype = msg.mtype
        if MessageType.DATA <= mtype <= MessageType.GRANT:
            # DATA..GRANT are contiguous codes (pinned by test_hotpath).
            m.grant = msg
            if m.expected is None or msg.terminal:
                m.expected = 0 if msg.terminal else msg.acks_expected
        elif mtype is MessageType.ACK:
            m.acks += 1
            if msg.aborted:
                m.aborted_acks += 1
        else:  # NACK
            m.nacks.append(msg)
            self._ns_nacks_received[self.node] += 1
        # completion checks
        if msg.terminal:
            self._complete(m, success=mtype is not MessageType.NACK,
                           terminal_msg=msg)
        elif m.grant is not None and m.acks + len(m.nacks) >= (m.expected or 0):
            self._complete(m, success=not m.nacks, terminal_msg=None)

    def _complete(self, m: Mshr, success: bool,
                  terminal_msg: Optional[Message]) -> None:
        self.mshr = None
        unicast_path = terminal_msg is not None and terminal_msg.u_bit
        owner_path = terminal_msg is not None and not terminal_msg.u_bit
        multicast_path = terminal_msg is None and (m.expected or 0) > 0
        needs_unblock = owner_path or unicast_path or multicast_path

        # --- classification (Figs. 2-3) and PUNO prediction stats ----
        if m.is_tx and m.exclusive and (multicast_path or owner_path
                                        or unicast_path):
            if success:
                self.stats.tx_getx_granted += 1
                self.stats.granted_victims += m.aborted_acks
            else:
                self.stats.tx_getx_nacked += 1
                if m.aborted_acks > 0:
                    # nacked AND it aborted sharers: false aborting.
                    self.stats.tx_getx_false_aborting += 1
                    self.stats.false_abort_victims.add(m.aborted_acks)
                    self.stats.false_victims += m.aborted_acks
        if unicast_path:
            if terminal_msg.mp_bit:
                self.stats.puno_mispredictions += 1
            else:
                self.stats.puno_correct_predictions += 1

        if needs_unblock:
            mp_node = m.mp_node()
            unblock = make_unblock(
                m.addr, self.node, m.addr % self._num_nodes, m.req_id,
                success, tuple(n.src for n in m.nacks), mp_node >= 0,
                mp_node)
            self.network.send(unblock, 1)

        if success:
            self._finish_request(m)
        else:
            self._failed_request(m)

    def _finish_request(self, m: Mshr) -> None:
        op = m.op
        grant = m.grant
        if grant is None:
            raise AssertionError(f"node {self.node}: request for "
                                 f"{m.addr} completed without a grant")
        # Install the line with the proper state.
        if m.exclusive:
            state = L1State.M
        elif grant.mtype is MessageType.DATA_EXCL:
            state = L1State.E  # MESI exclusive-clean grant
        else:
            state = L1State.S
        if grant.mtype is MessageType.GRANT:
            # Upgrade: we still hold the (pinned or not) S copy.
            line = self.l1.lookup(m.addr, touch=True)
            if line is None:
                raise AssertionError(f"node {self.node}: upgrade grant for "
                                     f"{m.addr} without an S copy")
            line.state = L1State.M
        else:
            line = self._install(m.addr, state, grant.value)
        tx = self.tx
        is_tx_op = isinstance(op, TxOp)
        if is_tx_op:
            if tx is None or tx.doomed:
                # The transaction died while the request was in flight;
                # keep the line (coherence is settled) but drop the op.
                if tx is not None and tx.doomed:
                    self._handle_abort()
                return
            if op.is_write:
                self._apply_write(op, line)
            else:
                self._apply_read(op, line)
            self._finish_op(op)
        else:
            if op.is_write:
                self._apply_write(op, line)
            else:
                self._apply_read(op, line)
            self._finish_op(op)

    def _failed_request(self, m: Mshr) -> None:
        op = m.op
        is_tx_op = isinstance(op, TxOp)
        tx = self.tx
        if is_tx_op:
            if tx is None:
                return
            if tx.doomed:
                self._handle_abort()
                return
        self._op_retries += 1
        if is_tx_op and self._op_retries > self.config.htm.max_retries:
            # Livelock escape hatch; must not trigger in practice, so
            # exhaustion is surfaced loudly rather than swallowed: a
            # dedicated counter plus a trace event.
            self.stats.retry_cap_exhausted += 1
            tracer = self.stats.tracer
            if tracer is not None:
                tracer.emit("tx", self.sim.now, event="retry_cap",
                            node=self.node, addr=m.addr,
                            retries=self._op_retries - 1,
                            limit=self.config.htm.max_retries)
            self._self_abort("livelock")
            self._handle_abort()
            return
        if m.nacks and all(n.mp_bit for n in m.nacks):
            # Pure misprediction: the request was never truly contested
            # (the unicast target could not have nacked on priority).
            # Retry right away — the UNBLOCK carrying the MP feedback is
            # already ordered ahead of the retry on the same path, so
            # the directory will multicast the retry.
            backoff = 2
        else:
            backoff = self.cm.nack_backoff(self.node, self._op_retries,
                                           m.max_t_est(), is_tx_op)
        self._ns_stall_cycles[self.node] += backoff
        if is_tx_op and tx is not None:
            tx.stall_cycles += backoff
        sim = self.sim
        self._pending = self._timer = sim.rearm(
            self._timer, sim.now + backoff, self._retry, (op,))

    def _install(self, addr: int, state: L1State, value: int):
        try:
            line, evicted = self.l1.install(addr, state, value)
        except CapacityError:
            if self.tx is None or not self.tx.active:
                raise AssertionError(f"node {self.node}: capacity pressure "
                                     f"on {addr} without a transaction")
            self.stats.capacity_aborts += 1
            self._self_abort("capacity")
            line, evicted = self.l1.install(addr, state, value)
        if evicted is not None and evicted.state >= 2:  # dirty-capable: E/M
            self._writeback(evicted)
        return line

    def _writeback(self, line) -> None:
        self.wb_buffer[line.addr] = line.value
        # A read-pinned E line is evicted sticky: the directory keeps us
        # on the sharer list so conflict detection still reaches us.
        sticky = line.pinned == 1
        tag = None
        if sticky and self.tx is not None and self.tx.active:
            tag = self.tx.tag()
        put = Message(MessageType.PUT, line.addr, self.node,
                      line.addr % self._num_nodes,
                      requester=self.node, req_id=next(self._req_seq),
                      value=line.value, sticky=sticky, tx=tag)
        self.network.send(put)

    def _owner_value(self, addr: int) -> int:
        """The dirty value for a line we own but no longer cache.

        Normally that is the writeback limbo buffer.  Under fault
        injection the directory may register us as owner while the
        data message itself was dropped — fabricate a value to keep
        the protocol moving (loss runs disable the value audits) and
        count the fabrication.
        """
        try:
            return self.wb_buffer[addr]
        except KeyError:
            if not self.fault_tolerant:
                raise
            self.stats.fault_fabricated_values += 1
            return 0

    def _handle_put_ack(self, msg: Message) -> None:
        self.wb_buffer.pop(msg.addr, None)
        for cb in self.wb_waiters.pop(msg.addr, []):
            cb()

    # ------------------------------------------------------------------
    # responder side: forwarded requests (conflict detection lives here)
    # ------------------------------------------------------------------
    def _notification(self) -> int:
        """T_est for an outgoing NACK (−1 = no notification)."""
        tx = self.tx
        if tx is None or not tx.active:
            return -1
        if not (self.config.puno.enabled
                and self.config.puno.notification_enabled):
            return -1
        elapsed = self.sim.now - tx.attempt_start - tx.stall_cycles
        t_est = self.txlb.estimate_remaining(tx.static_id, max(0, elapsed))
        if t_est >= 0:
            self.stats.puno_notifications += 1
        if self.san is not None:
            self.san.check_estimate(self, t_est)
        return t_est

    def _handle_fwd_getx(self, msg: Message) -> None:
        addr = msg.addr
        tx = self.tx
        if msg.u_bit:
            # PUNO unicast probe: NEVER granted (Section III-C) — either
            # the predicted nacker detects the conflict and nacks with a
            # notification, or the receiver nacks conservatively with
            # the MP-bit so the directory can drop its stale priority.
            # A restarted attempt also nacks for lines its previous
            # attempt touched: replay will touch them again.
            dec = check_fwd_getx(tx, addr, msg.tx)
            will_touch = (self.config.puno.prev_footprint_nack
                          and dec is not Decision.NACK
                          and tx is not None and tx.active
                          and addr in self._prev_footprint
                          and msg.tx is not None
                          and (tx.timestamp, tx.node)
                          < (msg.tx.timestamp, msg.tx.node))
            if will_touch:
                dec = Decision.NACK
            mp = dec is not Decision.NACK
            if self.san is not None:
                self.san.check_unicast_probe(self, msg, mp)
            if mp:
                if tx is None or not tx.active:
                    self.stats.puno_mp_no_tx += 1
                elif not tx.touches(addr):
                    self.stats.puno_mp_no_conflict += 1
                else:
                    self.stats.puno_mp_younger += 1
            # positional: terminal, acks_expected, u_bit, t_est, mp_bit
            resp = make_nack(addr, self.node, msg.requester, msg.req_id,
                             True, 0, True,
                             -1 if mp else self._notification(), mp)
            self._ns_nacks_sent[self.node] += 1
            self.network.send(resp, 1)
            return

        dec = check_fwd_getx(tx, addr, msg.tx, committing=msg.committing)
        if self.san is not None:
            self.san.check_conflict_decision(self, msg, dec, "getx")
        if dec is Decision.NACK:
            notify = msg.terminal  # owner path is a natural unicast
            resp = make_nack(addr, self.node, msg.requester, msg.req_id,
                             msg.terminal, msg.acks_expected, False,
                             self._notification() if notify else -1)
            self._ns_nacks_sent[self.node] += 1
            self.network.send(resp, 1)
            return

        aborted = False
        if dec is Decision.ACK_ABORT:
            self._self_abort("getx_conflict")
            aborted = True
            if msg.tx is not None:
                self.stats.aborts_by_getx += 1
        # Comply: supply data when we are the owner, invalidate our copy.
        line = self.l1.lookup(addr, touch=False)
        if msg.terminal:
            # Owner path: we hold E/M (or the line is in the writeback
            # limbo buffer) and must supply data cache-to-cache.
            if line is not None:
                value = line.value
                self.l1.invalidate(addr)
            else:
                value = self._owner_value(addr)
            # positional: value, acks_expected, terminal, aborted
            resp = make_data(MessageType.DATA_EXCL, addr, self.node,
                             msg.requester, msg.req_id, value, 0, True,
                             aborted)
        else:
            if line is not None:
                self.l1.invalidate(addr)
            resp = make_ack(addr, self.node, msg.requester, msg.req_id,
                            msg.acks_expected, aborted)
        self.network.send(resp, 1)

    def _handle_fwd_gets(self, msg: Message) -> None:
        addr = msg.addr
        tx = self.tx
        dec = check_fwd_gets(tx, addr, msg.tx)
        if self.san is not None:
            self.san.check_conflict_decision(self, msg, dec, "gets")
        if dec is Decision.NACK:
            resp = make_nack(addr, self.node, msg.requester, msg.req_id,
                             True, 0, False, self._notification())
            self._ns_nacks_sent[self.node] += 1
            self.network.send(resp, 1)
            return
        aborted = False
        if dec is Decision.ACK_ABORT:
            self._self_abort("gets_conflict")
            aborted = True
            if msg.tx is not None:
                self.stats.aborts_by_gets += 1
        line = self.l1.lookup(addr, touch=False)
        if line is not None:
            value = line.value
            self.l1.downgrade(addr)
        else:
            value = self._owner_value(addr)
        # Downgrade: fresh value to the home first (so it lands before
        # the requester's UNBLOCK), then data to the requester.
        # positional: requester, req_id, tx, value
        wb = Message(MessageType.WB_DATA, addr, self.node,
                     self.config.home_node(addr), msg.requester, msg.req_id,
                     None, value)
        self.network.send(wb, 1)
        resp = make_data(MessageType.DATA, addr, self.node, msg.requester,
                         msg.req_id, value, 0, True, aborted)
        self.network.send(resp, 1)
