"""Coherence message types, including the PUNO protocol extensions.

The paper (Fig. 7) extends three messages:

* ``GETX`` (and the forwarded invalidation) gains a **U-bit** marking a
  PUNO unicast;
* ``NACK`` gains a **notification field** (nacker's estimated remaining
  run time, in cycles) and an **MP-bit** for misprediction feedback;
* ``UNBLOCK`` gains an **MP-bit** and an **MP-node** field naming the
  mispredicted unicast destination.

All extensions fit in existing flits, so message flit counts do not
change between the baseline and PUNO (also per the paper).

Hot-path notes
--------------

Multi-million-event runs allocate one :class:`Message` per coherence
hop, so the class is deliberately *not* a dataclass: it is a
``__slots__`` class (no per-instance ``__dict__``) with a hand-written
``__init__`` whose parameter order matches the original dataclass field
order — every existing keyword call site still works, and hot paths may
bind the six identity fields positionally.  Every hot shape gets a
flyweight factory that fixes the redundant fields (a request's and an
UNBLOCK's ``requester`` is its source, a response's is its
destination, a forward copies its request's identity) and constructs
fully positionally: requests (:func:`make_request`), forwards
(:func:`make_fwd`), data and grants (:func:`make_data`) and the
no-payload responses (:func:`make_ack`, :func:`make_nack`,
:func:`make_put_ack`, :func:`make_unblock`).  Hot call sites pass the
factories' optional fields positionally too.

:class:`MessageType` is an ``IntEnum`` with dense codes (0..12): a
member *is* its array index, so hot paths accumulate stats with
``counts[msg.mtype] += 1`` and dispatch through flat per-code tables
instead of hashing strings or enum objects.  The string view lives in
``MessageType.name`` and is reconstructed only at snapshot/trace
boundaries via :data:`MSG_TYPE_NAMES`.
"""

from __future__ import annotations

import enum
import itertools
from typing import FrozenSet, NamedTuple, Optional, Tuple


class MessageType(enum.IntEnum):
    # Codes are dense array indices — append only, never renumber:
    # every Stats/trace decode table is built from this ordering.
    # requests to the home directory
    GETS = 0
    GETX = 1  # also covers S->M upgrades (needs_data=False)
    PUT = 2  # writeback of a dirty (M) line

    # directory -> sharer/owner forwards
    FWD_GETS = 3
    FWD_GETX = 4  # doubles as the invalidation to S sharers

    # responses (DATA..GRANT are contiguous so the MSHR's
    # "data-or-grant" test is one range check on the int code)
    DATA = 5  # data grant (shared)
    DATA_EXCL = 6  # data grant (exclusive/modified)
    GRANT = 7  # data-less exclusive grant (upgrade: requester has S)
    ACK = 8  # sharer invalidated (possibly after self-abort)
    NACK = 9  # conflict: request refused

    # completion
    UNBLOCK = 10  # requester -> directory, releases the entry
    PUT_ACK = 11  # directory acknowledges a writeback
    WB_DATA = 12  # owner -> directory data on downgrade


#: Dense code count — sizes every per-type accumulator array.
N_MESSAGE_TYPES = len(MessageType)

#: Code -> canonical name, for folding int-indexed accumulators back
#: into the str-keyed snapshot/trace view.
MSG_TYPE_NAMES: Tuple[str, ...] = tuple(t.name for t in MessageType)

# Flit sizing: data-bearing messages carry the 64 B line.
DATA_TYPES: FrozenSet[MessageType] = frozenset(
    {MessageType.DATA, MessageType.DATA_EXCL, MessageType.PUT, MessageType.WB_DATA}
)
CONTROL_TYPES: FrozenSet[MessageType] = frozenset(set(MessageType) - set(DATA_TYPES))


class TxTag(NamedTuple):
    """Transactional identity carried by coherence requests.

    ``timestamp`` is the time-based priority (smaller = older = higher
    priority).  ``length_hint`` is the requesting node's current
    static-transaction length estimate; directories fold it into their
    adaptive rollover-timeout period (the paper's "hardware mechanism"
    for average transaction length).

    A ``NamedTuple`` rather than a frozen dataclass: one tag is built
    per issued request, and tuple construction is a single C call where
    the generated frozen-dataclass ``__init__`` pays four
    ``object.__setattr__`` round trips.  Immutability, equality, and
    hashing carry over unchanged.
    """

    node: int
    timestamp: int
    static_id: int = -1
    length_hint: int = 0

    def older_than(self, other: "TxTag") -> bool:
        """Strict priority order with node id tiebreak (total order)."""
        return (self.timestamp, self.node) < (other.timestamp, other.node)


_msg_ids = itertools.count()


class Message:
    """One coherence message in flight.

    Field reference (parameter order is frozen — positional callers and
    the flyweight factories below depend on it):

    * ``requester`` — identity of the original requester (survives
      forwarding);
    * ``req_id`` — correlates forwards/responses with the request being
      serviced;
    * ``tx`` — transaction tag of the requester (None for
      non-transactional);
    * ``value`` — cache-line value payload for data-bearing messages;
    * ``acks_expected`` — on DATA(_EXCL)/GRANT: how many ACK/NACK
      responses the requester must await; echoed on forwards so
      responders can relay it;
    * ``terminal`` — on forwards/responses: single-responder path
      (owner forward or PUNO unicast) where one response resolves the
      whole request;
    * ``aborted`` — on ACK: the sharer aborted a transaction to comply
      (false-abort classification input for Figs. 2-3);
    * ``sticky`` — on PUT: sticky writeback of a transactionally-read E
      line — the directory downgrades to Shared and keeps the evictor
      on the sharer list so conflict detection still reaches it
      (LogTM's sticky-S idiom);
    * ``committing`` — on GETX/FWD_GETX: a lazy transaction's
      commit-time publication — committer-wins: transactional sharers
      always comply and abort (see repro.htm.lazy);
    * ``success`` / ``survivors`` — UNBLOCK: whether the GETX
      succeeded, and which sharers nacked (they keep their copies;
      everyone else was invalidated);
    * ``u_bit`` / ``t_est`` / ``mp_bit`` / ``mp_node`` — the PUNO
      extensions of Fig. 7 (unicast probe marker, nacker's estimated
      remaining cycles, misprediction feedback, mispredicted
      destination);
    * ``uid`` — bookkeeping: unique per constructed message.
    """

    __slots__ = ("mtype", "addr", "src", "dst", "requester", "req_id",
                 "tx", "value", "acks_expected", "terminal", "aborted",
                 "sticky", "committing", "success", "survivors",
                 "u_bit", "t_est", "mp_bit", "mp_node", "uid")

    def __init__(self, mtype: MessageType, addr: int, src: int, dst: int,
                 requester: int = -1, req_id: int = -1,
                 tx: Optional[TxTag] = None, value: int = 0,
                 acks_expected: int = 0, terminal: bool = False,
                 aborted: bool = False, sticky: bool = False,
                 committing: bool = False, success: bool = True,
                 survivors: Tuple[int, ...] = (), u_bit: bool = False,
                 t_est: int = -1, mp_bit: bool = False, mp_node: int = -1,
                 uid: Optional[int] = None):
        self.mtype = mtype
        self.addr = addr
        self.src = src
        self.dst = dst
        self.requester = requester
        self.req_id = req_id
        self.tx = tx
        self.value = value
        self.acks_expected = acks_expected
        self.terminal = terminal
        self.aborted = aborted
        self.sticky = sticky
        self.committing = committing
        self.success = success
        self.survivors = survivors
        self.u_bit = u_bit
        self.t_est = t_est
        self.mp_bit = mp_bit
        self.mp_node = mp_node
        self.uid = next(_msg_ids) if uid is None else uid

    def flits(self, control_flits: int, data_flits: int) -> int:
        return data_flits if self.mtype in DATA_TYPES else control_flits

    @property
    def is_transactional(self) -> bool:
        return self.tx is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.u_bit:
            extra += " U"
        if self.mp_bit:
            extra += " MP"
        if self.t_est >= 0:
            extra += f" Test={self.t_est}"
        return (
            f"<{self.mtype.name} addr={self.addr} {self.src}->{self.dst}"
            f" req={self.requester}#{self.req_id}{extra}>"
        )


# ---------------------------------------------------------------------
# flyweight response factories
# ---------------------------------------------------------------------
# A response travels *to* the requester, so ``requester == dst``; an
# UNBLOCK travels *from* the requester, so ``requester == src``.  The
# factories bake those identities in and call the constructor fully
# positionally — the cheapest construction path for the shapes that
# dominate message traffic.

def make_request(mtype: MessageType, addr: int, src: int, dst: int,
                 req_id: int, tx: Optional[TxTag] = None,
                 committing: bool = False) -> Message:
    """GETS/GETX from the requester at ``src`` to the home ``dst``."""
    return Message(mtype, addr, src, dst, src, req_id, tx, 0, 0, False,
                   False, False, committing)


def make_fwd(mtype: MessageType, req: Message, src: int, dst: int,
             acks_expected: int, terminal: bool = False,
             committing: bool = False, u_bit: bool = False) -> Message:
    """FWD_GETS/FWD_GETX of request ``req`` from its home ``src`` to the
    owner or sharer ``dst``; the requester's identity and tag ride
    along."""
    return Message(mtype, req.addr, src, dst, req.requester, req.req_id,
                   req.tx, 0, acks_expected, terminal, False, False,
                   committing, True, (), u_bit)


def make_data(mtype: MessageType, addr: int, src: int, dst: int,
              req_id: int, value: int = 0, acks_expected: int = 0,
              terminal: bool = False, aborted: bool = False) -> Message:
    """DATA, DATA_EXCL or GRANT to the requester at ``dst``."""
    return Message(mtype, addr, src, dst, dst, req_id, None, value,
                   acks_expected, terminal, aborted)


def make_ack(addr: int, src: int, dst: int, req_id: int,
             acks_expected: int = 0, aborted: bool = False) -> Message:
    """Invalidation ACK to the requester at ``dst``."""
    return Message(MessageType.ACK, addr, src, dst, dst, req_id, None, 0,
                   acks_expected, False, aborted)


def make_nack(addr: int, src: int, dst: int, req_id: int,
              terminal: bool = False, acks_expected: int = 0,
              u_bit: bool = False, t_est: int = -1,
              mp_bit: bool = False) -> Message:
    """Conflict NACK to the requester at ``dst``."""
    return Message(MessageType.NACK, addr, src, dst, dst, req_id, None, 0,
                   acks_expected, terminal, False, False, False, True, (),
                   u_bit, t_est, mp_bit)


def make_put_ack(addr: int, src: int, dst: int, req_id: int) -> Message:
    """Directory acknowledgment of a writeback from ``dst``."""
    return Message(MessageType.PUT_ACK, addr, src, dst, dst, req_id)


def make_unblock(addr: int, src: int, dst: int, req_id: int,
                 success: bool = True, survivors: Tuple[int, ...] = (),
                 mp_bit: bool = False, mp_node: int = -1) -> Message:
    """Entry-releasing UNBLOCK from the requester at ``src``."""
    return Message(MessageType.UNBLOCK, addr, src, dst, src, req_id, None,
                   0, 0, False, False, False, False, success, survivors,
                   False, -1, mp_bit, mp_node)


# Which message types may legally carry each protocol-extension field
# (Fig. 7: the extensions ride on existing messages, nothing else).
_FIELD_CARRIERS = {
    "u_bit": frozenset({MessageType.FWD_GETX, MessageType.NACK}),
    "t_est": frozenset({MessageType.NACK}),
    "mp_bit": frozenset({MessageType.NACK, MessageType.UNBLOCK}),
    "mp_node": frozenset({MessageType.UNBLOCK}),
    "sticky": frozenset({MessageType.PUT}),
    "committing": frozenset({MessageType.GETX, MessageType.FWD_GETX}),
    "survivors": frozenset({MessageType.UNBLOCK}),
    "aborted": frozenset({MessageType.ACK, MessageType.DATA,
                          MessageType.DATA_EXCL}),
}


def field_violations(msg: Message) -> list:
    """Field/type mismatches in ``msg`` (empty when well-formed).

    Used by the runtime sanitizer; kept here so the legal-carrier
    table lives next to the message definition it constrains.
    """
    problems = []
    t = msg.mtype
    set_fields = (
        ("u_bit", msg.u_bit),
        ("t_est", msg.t_est >= 0),
        ("mp_bit", msg.mp_bit),
        ("mp_node", msg.mp_node >= 0),
        ("sticky", msg.sticky),
        ("committing", msg.committing),
        ("survivors", bool(msg.survivors)),
        ("aborted", msg.aborted),
    )
    for name, present in set_fields:
        if present and t not in _FIELD_CARRIERS[name]:
            problems.append(f"{name} set on {t.name}")
    if msg.mp_node >= 0 and not msg.mp_bit:
        problems.append("mp_node named without the MP-bit")
    if msg.mp_bit and t is MessageType.UNBLOCK and msg.mp_node < 0:
        problems.append("UNBLOCK MP-bit without an mp_node")
    if msg.acks_expected < 0:
        problems.append(f"negative acks_expected {msg.acks_expected}")
    return problems
