"""Home-node directory controller (one per L2 bank).

SGI-Origin-style *blocking* directory: an entry blocks while a request
is in flight and queues subsequent requests FIFO.  Every service blocks
its entry; simple services (data supplied directly by the home bank)
unblock when the response leaves, forwarded services unblock when the
requester's UNBLOCK arrives.  The time an entry spends blocked while
servicing a *transactional GETX* is the Fig. 12 metric.

PUNO plugs in through an optional ``puno`` unit (see
:mod:`repro.core.puno`): it observes transactional requests (P-Buffer
updates), may turn a would-be multicast of a transactional GETX into a
U-bit unicast to the predicted highest-priority sharer, receives
misprediction feedback relayed on UNBLOCK, and recomputes the entry's
UD pointer off the critical path after each service.
"""

from __future__ import annotations

from collections import deque
from typing import ClassVar, Deque, Dict, Optional, Tuple

from repro.coherence.states import DirState
from repro.core.bitset import bit_tuple
from repro.network.message import Message, MessageType, make_data, \
    make_fwd, make_put_ack
from repro.network.network import Network
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.stats import Stats

__all__ = ["DirEntry", "DirectoryController", "ServiceRecord"]


class DirEntry:
    """Directory state for one cache line.

    ``sharers`` is an integer bitmask (bit ``n`` = node ``n`` shares
    the line): membership, add/remove and clear are int ops with no
    per-event container allocation, and the representation stays one
    object at any mesh width.
    """

    __slots__ = ("state", "sharers", "owner", "value", "in_l2", "blocked",
                 "waitq", "service", "ud", "tx_readers")

    def __init__(self) -> None:
        self.state: DirState = DirState.I
        self.sharers: int = 0
        self.owner: Optional[int] = None
        self.value: int = 0
        self.in_l2: bool = False  # False until first touch (memory fetch)
        self.blocked: bool = False
        # (msg, arrival) waiters; None until the first blocked arrival
        self.waitq: Optional[Deque[Tuple]] = None
        self.service = None  # Optional[ServiceRecord]
        self.ud: Optional[int] = None  # PUNO unicast-destination pointer
        # PUNO reader-epoch metadata: sharer -> timestamp of the
        # transaction whose request added it to the sharer list.
        self.tx_readers: dict = {}


class ServiceRecord:
    """In-flight request bookkeeping while the entry is blocked."""

    __slots__ = ("msg", "kind", "block_start", "is_txgetx", "owner_path",
                 "unicast", "requester_was_sharer", "targets",
                 "wb_received", "deferred_unblock")

    def __init__(self, msg: Message, kind: str, block_start: int,
                 is_txgetx: bool = False, owner_path: bool = False,
                 unicast: bool = False, requester_was_sharer: bool = False,
                 targets: Tuple[int, ...] = ()):
        self.msg = msg
        self.kind = kind  # 'gets' | 'getx' | 'fetch' | 'simple'
        self.block_start = block_start
        self.is_txgetx = is_txgetx
        self.owner_path = owner_path
        self.unicast = unicast
        self.requester_was_sharer = requester_was_sharer
        self.targets = targets
        # Owner-path GETS only: has the owner's WB_DATA landed, and an
        # UNBLOCK held back because it hasn't (delay injection only —
        # fault-free the WB_DATA always wins the race; see
        # _handle_wb_data).
        self.wb_received = False
        self.deferred_unblock: Optional[Message] = None


class DirectoryController:
    """The home directory + L2 slice of one node."""

    # Message dispatch by method name, resolved per instance at wiring
    # time by ``System._make_endpoint`` (as ``NodeController.HANDLERS``).
    HANDLERS: ClassVar[Dict[MessageType, str]] = {
        MessageType.GETS: "_enqueue_or_service",
        MessageType.GETX: "_enqueue_or_service",
        MessageType.PUT: "_enqueue_or_service",
        MessageType.UNBLOCK: "_handle_unblock",
        MessageType.WB_DATA: "_handle_wb_data",
    }

    def __init__(self, sim: Simulator, node: int, config: SystemConfig,
                 network: Network, stats: Stats, puno=None, arbiter=None):
        self.sim = sim
        self.node = node
        self.config = config
        self.network = network
        self.stats = stats
        self._dir_req_counts = stats._dir_req_counts  # SoA accumulator
        self.puno = puno  # Optional[repro.core.puno.DirectoryPUNO]
        # Scheme directory-forward policy (repro.schemes.base.DirArbiter);
        # None keeps the plain FIFO drain in _unblock.
        self.arbiter = arbiter
        self.san = None  # Optional[repro.sanitize.sanitizer.ProtocolSanitizer]
        # One entry per line this bank has ever seen; a line back in
        # state I keeps its entry (and with it its value and in_l2).
        self.entries: Dict[int, DirEntry] = {}

    # ------------------------------------------------------------------
    # message entry point
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        name = self.HANDLERS.get(msg.mtype)
        if name is None:  # pragma: no cover - protocol bug guard
            raise ValueError(f"directory {self.node} got {msg}")
        getattr(self, name)(msg)

    # ------------------------------------------------------------------
    # request dispatch / queueing
    # ------------------------------------------------------------------
    def _enqueue_or_service(self, msg: Message) -> None:
        entry = self.entries.get(msg.addr)
        if entry is None:
            entry = self.entries[msg.addr] = DirEntry()
        if entry.blocked:
            # The first waiter creates the queue; the entry keeps it,
            # empty, after the drain.
            waitq = entry.waitq
            if waitq is None:
                waitq = entry.waitq = deque()
            waitq.append((msg, self.sim.now))
            return
        self._service(msg, entry)

    def _service(self, msg: Message, entry: DirEntry) -> None:
        # int-indexed accumulation; folds back to the same str keying
        # as messages_by_type at the snapshot boundary
        self._dir_req_counts[msg.mtype] += 1
        if self.stats.tracer is not None:
            self.stats.tracer.emit(
                "dir", self.sim.now, event="service", home=self.node,
                type=msg.mtype.name, addr=msg.addr, req=msg.requester,
                state=entry.state.name, sharers=entry.sharers.bit_count())
        if self.puno is not None:
            self.puno.observe_request(msg)
            if self.san is not None:
                self.san.check_pbuffer(self.puno.pbuffer)
        if msg.mtype is MessageType.GETS:
            self._service_gets(msg, entry)
        elif msg.mtype is MessageType.GETX:
            self._service_getx(msg, entry)
        else:
            self._service_put(msg, entry)

    # ------------------------------------------------------------------
    # GETS
    # ------------------------------------------------------------------
    def _service_gets(self, msg: Message, entry: DirEntry) -> None:
        if entry.state is DirState.I:
            self._fetch_and_grant(msg, entry, exclusive=True)
        elif entry.state is DirState.S:
            # Data streams from the home L2 bank; entry blocks for the
            # bank occupancy and unblocks when the response leaves.
            self._block(entry, ServiceRecord(msg, "simple", self.sim.now))
            delay = self.config.directory_latency + self.config.l2_latency
            self.sim.call_later(delay, self._finish_simple_gets, msg, entry)
        else:  # M: forward to the owner
            if entry.owner is None or entry.owner == msg.requester:
                raise AssertionError(
                    f"GETS from owner {msg.requester} addr {msg.addr}")
            rec = ServiceRecord(msg, "gets", self.sim.now, owner_path=True)
            self._block(entry, rec)
            # positional: acks_expected, terminal
            fwd = make_fwd(MessageType.FWD_GETS, msg, self.node,
                           entry.owner, 1, True)
            self.network.send(fwd, self.config.directory_latency)

    def _finish_simple_gets(self, msg: Message, entry: DirEntry) -> None:
        entry.sharers |= 1 << msg.requester
        if msg.tx is not None:
            entry.tx_readers[msg.requester] = msg.tx.timestamp
        else:
            entry.tx_readers.pop(msg.requester, None)
        entry.state = DirState.S
        resp = make_data(MessageType.DATA, msg.addr, self.node,
                         msg.requester, msg.req_id, entry.value)
        self.network.send(resp)
        self._unblock(entry)

    # ------------------------------------------------------------------
    # GETX (and upgrades)
    # ------------------------------------------------------------------
    def _service_getx(self, msg: Message, entry: DirEntry) -> None:
        is_tx = msg.tx is not None
        if is_tx:
            self.stats.tx_getx_total += 1
        if entry.state is DirState.I:
            if is_tx:
                self.stats.tx_getx_granted += 1
            self._fetch_and_grant(msg, entry, exclusive=True)
            return
        if entry.state is DirState.M:
            if entry.owner is None or entry.owner == msg.requester:
                raise AssertionError(
                    f"GETX from owner {msg.requester} addr {msg.addr}")
            rec = ServiceRecord(msg, "getx", self.sim.now,
                                is_txgetx=is_tx, owner_path=True)
            self._block(entry, rec)
            # positional: acks_expected, terminal, committing
            fwd = make_fwd(MessageType.FWD_GETX, msg, self.node,
                           entry.owner, 1, True, msg.committing)
            self.network.send(fwd, self.config.directory_latency)
            return

        # state S
        req_bit = 1 << msg.requester
        targets = bit_tuple(entry.sharers & ~req_bit)  # ascending ids
        was_sharer = bool(entry.sharers & req_bit)
        if not targets:
            # Requester is the sole sharer (or the list is empty):
            # grant immediately, blocking only for bank occupancy.
            if is_tx:
                self.stats.tx_getx_granted += 1
            self._block(entry, ServiceRecord(msg, "simple", self.sim.now))
            delay = self.config.directory_latency
            if not was_sharer:
                delay += self.config.l2_latency
            self.sim.call_later(delay, self._finish_sole_getx, msg, entry,
                              was_sharer)
            return

        # PUNO: try to unicast to the predicted highest-priority sharer.
        unicast_to: Optional[int] = None
        extra = self.config.directory_latency
        if self.puno is not None and is_tx:
            unicast_to = self.puno.predict_unicast(entry, msg, targets)
            extra += self.puno.predict_latency
        if unicast_to is not None:
            self.stats.puno_unicasts += 1
            rec = ServiceRecord(msg, "getx", self.sim.now, is_txgetx=is_tx,
                                unicast=True, requester_was_sharer=was_sharer,
                                targets=(unicast_to,))
            self._block(entry, rec)
            # positional: acks_expected, terminal, committing, u_bit
            fwd = make_fwd(MessageType.FWD_GETX, msg, self.node,
                           unicast_to, 1, True, False, True)
            self.network.send(fwd, extra)
            return

        if self.puno is not None and is_tx:
            self.stats.puno_multicasts += 1
        rec = ServiceRecord(msg, "getx", self.sim.now, is_txgetx=is_tx,
                            requester_was_sharer=was_sharer, targets=targets)
        self._block(entry, rec)
        k = len(targets)
        for i, t in enumerate(targets):
            fwd = make_fwd(MessageType.FWD_GETX, msg, self.node, t, k,
                           False, msg.committing)
            # One injection port: the i-th invalidation leaves one
            # flit-time after the previous — the serialization that
            # makes multicasts occupy the entry longer than unicasts
            # (the Fig. 12 effect).
            self.network.send(fwd, extra + i)
        # Grant header to the requester: data unless it still holds S
        # (positional: value, acks_expected).
        if was_sharer:
            grant = make_data(MessageType.GRANT, msg.addr, self.node,
                              msg.requester, msg.req_id, 0, k)
            self.network.send(grant, extra)
        else:
            grant = make_data(MessageType.DATA_EXCL, msg.addr, self.node,
                              msg.requester, msg.req_id, entry.value, k)
            self.network.send(grant, extra + self.config.l2_latency)

    def _finish_sole_getx(self, msg: Message, entry: DirEntry,
                          was_sharer: bool) -> None:
        entry.sharers = 0
        entry.tx_readers.clear()
        if msg.tx is not None:
            # a transactional writer reads the line too (write implies
            # read permission); remember its epoch so a later downgrade
            # keeps it a valid unicast candidate
            entry.tx_readers[msg.requester] = msg.tx.timestamp
        entry.state = DirState.M
        entry.owner = msg.requester
        if was_sharer:
            resp = make_data(MessageType.GRANT, msg.addr, self.node,
                             msg.requester, msg.req_id)
        else:
            resp = make_data(MessageType.DATA_EXCL, msg.addr, self.node,
                             msg.requester, msg.req_id, entry.value)
        self.network.send(resp)
        self._unblock(entry)

    # ------------------------------------------------------------------
    # I-state fetch path (first touch pays memory latency)
    # ------------------------------------------------------------------
    def _fetch_and_grant(self, msg: Message, entry: DirEntry,
                         exclusive: bool) -> None:
        if entry.in_l2:
            delay = self.config.directory_latency + self.config.l2_latency
        else:
            delay = self.config.directory_latency + self.config.memory_latency
            self.stats.l2_misses += 1
        self._block(entry, ServiceRecord(msg, "fetch", self.sim.now))
        self.sim.call_later(delay, self._finish_fetch, msg, entry)

    def _finish_fetch(self, msg: Message, entry: DirEntry) -> None:
        entry.in_l2 = True
        # MESI: a GETS with no sharers is granted Exclusive, so both
        # GETS and GETX leave the entry in the owner state.
        entry.state = DirState.M
        entry.owner = msg.requester
        entry.sharers = 0
        entry.tx_readers.clear()
        if msg.tx is not None:
            entry.tx_readers[msg.requester] = msg.tx.timestamp
        resp = make_data(MessageType.DATA_EXCL, msg.addr, self.node,
                         msg.requester, msg.req_id, entry.value)
        self.network.send(resp)
        self._unblock(entry)

    # ------------------------------------------------------------------
    # PUT (writeback)
    # ------------------------------------------------------------------
    def _service_put(self, msg: Message, entry: DirEntry) -> None:
        self.stats.writebacks += 1
        if entry.state is DirState.M and entry.owner == msg.src:
            entry.value = msg.value
            entry.owner = None
            entry.in_l2 = True
            if msg.sticky:
                # Sticky-S: the evictor's transaction read this line;
                # keep it a sharer so forwards still reach it.
                entry.state = DirState.S
                entry.sharers = 1 << msg.src
                if msg.tx is not None:
                    readers = entry.tx_readers
                    readers.clear()
                    readers[msg.src] = msg.tx.timestamp
            else:
                entry.state = DirState.I
                entry.sharers = 0
                entry.tx_readers.clear()
        # else: stale writeback (ownership already moved on) — drop it.
        ack = make_put_ack(msg.addr, self.node, msg.src, msg.req_id)
        self.network.send(ack, self.config.directory_latency)

    # ------------------------------------------------------------------
    # UNBLOCK / WB_DATA
    # ------------------------------------------------------------------
    def _handle_unblock(self, msg: Message) -> None:
        # The entry is blocked on this service, so it exists.
        entry = self.entries[msg.addr]
        rec = entry.service
        if rec is None or not entry.blocked:
            raise AssertionError(f"spurious UNBLOCK {msg}")
        if (rec.kind == "gets" and rec.owner_path and msg.success
                and not rec.wb_received):
            # The owner's WB_DATA is still in flight.  Only reachable
            # under injected delay: the WB_DATA takes the direct
            # owner -> home leg while this UNBLOCK travelled
            # owner -> requester -> home, so by the triangle inequality
            # it cannot lose the race on a clean mesh.  Hold the
            # unblock until the downgrade value lands — reopening the
            # entry with the stale home copy would lose the owner's
            # last write.
            rec.deferred_unblock = msg
            return
        self._finish_unblock(msg, entry, rec)

    def _finish_unblock(self, msg: Message, entry: DirEntry,
                        rec: ServiceRecord) -> None:
        if rec.kind == "getx":
            if msg.success:
                entry.sharers = 0
                entry.tx_readers.clear()
                if rec.msg.tx is not None:
                    entry.tx_readers[msg.requester] = rec.msg.tx.timestamp
                entry.state = DirState.M
                entry.owner = msg.requester
            elif rec.owner_path or rec.unicast:
                pass  # nothing was invalidated; state stands
            else:
                # Multicast fail: nackers kept their copies, everyone
                # else invalidated; the (upgrading) requester keeps S.
                survivors = 0
                for n in msg.survivors:
                    survivors |= 1 << n
                if rec.requester_was_sharer:
                    survivors |= 1 << msg.requester
                entry.sharers = survivors
                readers = entry.tx_readers
                if readers:
                    for n in [n for n in readers
                              if not (survivors >> n) & 1]:
                        del readers[n]
                entry.state = DirState.S if survivors else DirState.I
        elif rec.kind == "gets":
            if msg.success:
                old_owner = entry.owner
                entry.state = DirState.S
                entry.owner = None
                entry.sharers = (1 << old_owner) | (1 << msg.requester)
                # keep the downgraded owner's reader epoch (it read the
                # line under its current transaction), add the requester
                readers = entry.tx_readers
                if readers:
                    owner_ts = readers.get(old_owner)
                    readers.clear()
                    if owner_ts is not None:
                        readers[old_owner] = owner_ts
                if rec.msg.tx is not None:
                    readers[msg.requester] = rec.msg.tx.timestamp
            # fail: owner nacked and keeps M; state stands.
        else:  # pragma: no cover - protocol bug guard
            raise AssertionError(f"UNBLOCK for {rec.kind} service")

        if self.puno is not None:
            if msg.mp_bit and msg.mp_node >= 0:
                self.puno.feedback_mispredict(msg.mp_node)
                if self.san is not None:
                    self.san.check_mp_feedback(self.puno, msg.mp_node)
        # _unblock recomputes the UD pointer (after_service) before it
        # restarts any queued service
        self._unblock(entry)
        if self.san is not None:
            # Line state is settled here (requester installed before
            # sending UNBLOCK), unless a restarted service blocked it
            self.san.check_settled_line(self, msg.addr)

    def _handle_wb_data(self, msg: Message) -> None:
        # Owner-supplied data on an M -> S downgrade.  On the mesh this
        # always lands while the entry is still blocked on the request
        # that triggered it (the requester's UNBLOCK takes the longer
        # two-leg path, so by the triangle inequality it cannot arrive
        # first); a mismatch is only reachable under injected delay and
        # means the line has moved on — applying the payload would
        # overwrite a fresher value with a stale one.  The entry exists:
        # this bank forwarded the FWD_GETS, and entries are never dropped.
        entry = self.entries[msg.addr]
        rec = entry.service
        if (rec is None or rec.msg.req_id != msg.req_id
                or rec.msg.src != msg.requester):
            return
        entry.value = msg.value
        entry.in_l2 = True
        rec.wb_received = True
        if rec.deferred_unblock is not None:
            # The requester's UNBLOCK beat us here (injected delay);
            # the downgrade value is now home, so complete it.
            self._finish_unblock(rec.deferred_unblock, entry, rec)

    # ------------------------------------------------------------------
    # blocking machinery
    # ------------------------------------------------------------------
    def _block(self, entry: DirEntry, rec: ServiceRecord) -> None:
        if entry.blocked:
            raise AssertionError("blocking an already blocked entry")
        entry.blocked = True
        entry.service = rec
        self.stats.dir_blocked_events += 1

    def _unblock(self, entry: DirEntry) -> None:
        rec = entry.service
        if rec is None:
            raise AssertionError("unblocking an entry with no service")
        blocked_for = self.sim.now - rec.block_start
        self.stats.dir_blocked_cycles_total += blocked_for
        if rec.is_txgetx:
            self.stats.dir_blocked_cycles_txgetx += blocked_for
        entry.blocked = False
        entry.service = None
        if self.puno is not None and rec.kind != "fetch":
            self.puno.after_service(entry)
        # Drain the wait queue until a service blocks the entry again
        # (some services, e.g. PUT, complete without blocking).  A
        # scheme arbiter, when present, picks which waiter goes next;
        # FIFO schemes keep the bare popleft.
        arb = self.arbiter
        while entry.waitq and not entry.blocked:
            if arb is None:
                nxt, arrived = entry.waitq.popleft()
            else:
                nxt, arrived = arb.select(entry.waitq, self.sim.now)
            self.stats.dir_queue_wait_cycles += self.sim.now - arrived
            self._service(nxt, entry)
