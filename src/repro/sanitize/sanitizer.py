"""Runtime protocol sanitizer.

One :class:`ProtocolSanitizer` per :class:`~repro.system.System`,
created when sanitizing is enabled.  :meth:`attach` wires it into the
components (each holds an optional ``san`` back-reference, ``None``
when disabled); the engine knows nothing of it, so sanitized and plain
runs drain through the same loop.

Check placement
---------------

Per-line cache/directory consistency cannot be checked at arbitrary
points — a blocking-directory service leaves the line's global state in
transit between the forward and the requester's UNBLOCK.  The one
moment the state is settled is when the UNBLOCK reaches the home
directory: the requester installed its copy *before* sending it, every
invalidation ACK was collected before that, and no new service has
started (the entry is still blocked).  The directory therefore calls
:meth:`ProtocolSanitizer.check_settled_line` at the end of that
UNBLOCK's handling, after it restarted any queued service, so a line
whose entry re-blocked is skipped and re-checked at that service's own
UNBLOCK.

Everything else (priority decisions, P-Buffer counters, TxLB
estimates, message fields, the undo log) is pure data and is checked
inline at the component hook.  Every check increments
``stats.sanitizer_checks`` so tests can prove the sanitizer actually
ran — including inside parallel sweep workers, where the counter
travels back with the pickled Stats.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.coherence.states import DirState, L1State
from repro.core.bitset import bit_list
from repro.htm.conflict import Decision
from repro.network.message import Message, field_violations
from repro.sanitize.violations import SanitizerViolation


class ProtocolSanitizer:
    """Event-boundary invariant checker for one running System."""

    def __init__(self, system) -> None:
        self.system = system
        self.sim = system.sim
        self.stats = system.stats
        self.config = system.config

    def attach(self) -> None:
        """Wire the sanitizer into every component of the system."""
        self.system.network.san = self
        for directory in self.system.directories:
            directory.san = self
        for node in self.system.nodes:
            node.san = self

    # ------------------------------------------------------------------
    def _fail(self, rule: str, message: str, node: Optional[int] = None,
              addr: Optional[int] = None) -> None:
        raise SanitizerViolation(rule, message, cycle=self.sim.now,
                                 node=node, addr=addr)

    # ==================================================================
    # line-state checks (mesi-single-owner, dir-sharers)
    # ==================================================================
    def check_settled_line(self, directory, addr: int) -> None:
        """Called by the directory once an UNBLOCK has completed a
        service and restarted any queued one."""
        entry = directory.entries[addr]
        if entry.blocked:
            # a queued request claimed the entry; its own UNBLOCK
            # checks the line again
            return
        self.check_line(addr, entry)

    def check_line(self, addr: int, entry) -> None:
        """Single-owner MESI + sharer-list consistency for one line.

        Sharer direction: the directory's list is deliberately
        conservative (sticky-S keeps silently-evicted sharers listed so
        conflict detection still reaches them), so the invariant is
        {nodes holding S} a subset of ``entry.sharers`` — not equality.
        """
        self.stats.sanitizer_checks += 1
        owners: List[int] = []
        sharers: List[int] = []
        for node in self.system.nodes:
            line = node.l1.lookup(addr, touch=False)
            if line is None:
                continue
            if line.state in (L1State.E, L1State.M):
                owners.append(node.node)
            elif line.state is L1State.S:
                sharers.append(node.node)
        if len(owners) > 1:
            self._fail("mesi-single-owner",
                       f"multiple E/M copies at nodes {owners}", addr=addr)
        if owners and sharers:
            self._fail("mesi-single-owner",
                       f"owner {owners[0]} coexists with S holders "
                       f"{sharers}", addr=addr)
        if entry.state is DirState.M:
            in_limbo = (entry.owner is not None and
                        addr in self.system.nodes[entry.owner].wb_buffer)
            if owners and owners[0] != entry.owner:
                self._fail("mesi-single-owner",
                           f"directory owner {entry.owner} but E/M copy "
                           f"at node {owners[0]}", addr=addr)
            if not owners and not in_limbo:
                self._fail("mesi-single-owner",
                           f"directory owner {entry.owner} holds no E/M "
                           f"copy (and none in writeback limbo)",
                           addr=addr)
            if sharers:
                self._fail("dir-sharers",
                           f"directory M but S copies at {sharers}",
                           addr=addr)
        elif entry.state is DirState.S:
            if owners:
                self._fail("mesi-single-owner",
                           f"directory S but E/M copy at node "
                           f"{owners[0]}", addr=addr)
            mask = entry.sharers  # integer bitmask, bit n = node n
            missing = [n for n in sharers if not (mask >> n) & 1]
            if missing:
                self._fail("dir-sharers",
                           f"S holders {missing} missing from sharer "
                           f"list {bit_list(mask)}", addr=addr)
        else:  # DirState.I
            cached = owners + sharers
            if cached:
                self._fail("dir-sharers",
                           f"directory I but cached at {cached}",
                           addr=addr)

    # ==================================================================
    # conflict-decision checks (abort-overlap) — the paper's mismatch
    # ==================================================================
    def _overlap_and_priority(self, node, msg: Message,
                              write_only: bool) -> Tuple[bool, bool]:
        """Re-derive (real overlap, local priority) from raw state.

        Deliberately independent of :mod:`repro.htm.conflict`: raw set
        membership and a raw (timestamp, node) comparison, so a bug in
        the decision rules cannot hide from the checker.
        """
        tx = node.tx
        active = tx is not None and tx.active
        if not active:
            return False, False
        if write_only:
            overlap = msg.addr in tx.write_set
        else:
            overlap = (msg.addr in tx.read_set or
                       msg.addr in tx.write_set)
        req = msg.tx
        local_wins = (tx.committing or req is None or
                      (tx.timestamp, tx.node) < (req.timestamp, req.node))
        return overlap, local_wins

    def check_conflict_decision(self, node, msg: Message,
                                dec: Decision, kind: str) -> None:
        """A forwarded GETS/GETX decision must match a real conflict.

        ``kind`` is ``"getx"`` or ``"gets"``.  An abort (or NACK)
        without a genuine read/write-set overlap is exactly the
        coherence/conflict-detection mismatch the paper targets — a
        node killed (or stalled) over a line its transaction never
        touched.
        """
        self.stats.sanitizer_checks += 1
        overlap, local_wins = self._overlap_and_priority(
            node, msg, write_only=(kind == "gets"))
        committer = kind == "getx" and msg.committing
        if dec is Decision.ACK_ABORT:
            if not overlap:
                self._fail("abort-overlap",
                           f"ACK_ABORT on fwd_{kind} without read/write-"
                           f"set overlap", node=node.node, addr=msg.addr)
            if local_wins and not committer:
                self._fail("abort-overlap",
                           f"older transaction aborted by younger "
                           f"fwd_{kind} requester", node=node.node,
                           addr=msg.addr)
        elif dec is Decision.NACK:
            if committer:
                self._fail("abort-overlap",
                           "NACK against a committing publication "
                           "(committer-wins violated)", node=node.node,
                           addr=msg.addr)
            if not overlap:
                self._fail("abort-overlap",
                           f"NACK on fwd_{kind} without read/write-set "
                           f"overlap", node=node.node, addr=msg.addr)
            if not local_wins:
                self._fail("abort-overlap",
                           f"NACK on fwd_{kind} by the younger "
                           f"transaction", node=node.node, addr=msg.addr)
        else:  # ACK: silent compliance
            if overlap and local_wins:
                self._fail("abort-overlap",
                           f"conflict missed: fwd_{kind} ACKed despite "
                           f"overlap and local priority",
                           node=node.node, addr=msg.addr)

    def check_unicast_probe(self, node, msg: Message, mp: bool) -> None:
        """A U-bit probe's MP-bit must reflect the real conflict state.

        ``mp=False`` claims a genuine priority NACK: the target must
        truly overlap and win — or be replaying a previous attempt's
        footprint (which re-execution will touch again).  ``mp=True``
        claims a misprediction, so no winning overlap may exist.
        """
        self.stats.sanitizer_checks += 1
        overlap, local_wins = self._overlap_and_priority(
            node, msg, write_only=False)
        real_conflict = overlap and local_wins
        tx = node.tx
        req = msg.tx
        replay = (self.config.puno.prev_footprint_nack
                  and tx is not None and tx.active and req is not None
                  and msg.addr in node._prev_footprint
                  and (tx.timestamp, tx.node) < (req.timestamp, req.node))
        if not mp and not real_conflict and not replay:
            self._fail("abort-overlap",
                       "unicast probe NACKed as a real conflict without "
                       "overlap or priority", node=node.node,
                       addr=msg.addr)
        if mp and real_conflict:
            self._fail("abort-overlap",
                       "MP-bit set despite a genuine winning conflict "
                       "(would invalidate a correct P-Buffer entry)",
                       node=node.node, addr=msg.addr)

    # ==================================================================
    # PUNO checks (ubit-ack, mp-feedback, pbuffer-validity,
    # txlb-estimate)
    # ==================================================================
    def check_ubit_response(self, node, msg: Message) -> None:
        """Section III-C: a unicast probe is never granted — the only
        legal U-bit response is a NACK."""
        self.stats.sanitizer_checks += 1
        if msg.u_bit and msg.mtype.name != "NACK":
            self._fail("ubit-ack",
                       f"{msg.mtype.name} response carries the U-bit "
                       f"(unicast probes must be NACKed)",
                       node=node.node, addr=msg.addr)

    def check_mp_feedback(self, puno, node: int) -> None:
        """After MP feedback the P-Buffer entry must be gone."""
        self.stats.sanitizer_checks += 1
        pb = puno.pbuffer
        if pb.priority(node) is not None or pb.validity(node) != 0:
            self._fail("mp-feedback",
                       f"P-Buffer entry for node {node} survived MP "
                       f"feedback (priority={pb.priority(node)}, "
                       f"validity={pb.validity(node)})", node=node)

    def check_pbuffer(self, pbuffer) -> None:
        """Validity counters in range; no validity without a priority."""
        self.stats.sanitizer_checks += 1
        vmax = pbuffer.config.validity_max
        for n in range(pbuffer.num_nodes):
            v = pbuffer.validity(n)
            if not 0 <= v <= vmax:
                self._fail("pbuffer-validity",
                           f"validity counter {v} outside [0, {vmax}]",
                           node=n)
            if pbuffer.priority(n) is None and v != 0:
                self._fail("pbuffer-validity",
                           f"validity {v} with no recorded priority",
                           node=n)

    def check_txlb(self, node, txlb) -> None:
        """Stored static-transaction lengths must be positive."""
        self.stats.sanitizer_checks += 1
        for table in (txlb._hw, txlb._soft):
            for static_id, length in table.items():
                if not length > 0:
                    self._fail("txlb-estimate",
                               f"stored length {length} for static tx "
                               f"{static_id} is not positive",
                               node=node.node)

    def check_estimate(self, node, t_est: int) -> None:
        """A notification is a cycle count >= 0, or exactly -1."""
        self.stats.sanitizer_checks += 1
        if t_est < -1:
            self._fail("txlb-estimate",
                       f"T_est notification {t_est} is neither >= 0 "
                       f"nor the no-history sentinel -1", node=node.node)

    # ==================================================================
    # message / undo-log checks
    # ==================================================================
    def check_message(self, msg: Message) -> None:
        """Field/type combinations per the Fig. 7 protocol extensions."""
        self.stats.sanitizer_checks += 1
        problems = field_violations(msg)
        if problems:
            self._fail("message-fields",
                       f"{msg.mtype.name} {msg.src}->{msg.dst}: "
                       + "; ".join(problems), addr=msg.addr)

    def check_undo_log(self, node, tx) -> None:
        """Eager versioning: the undo log mirrors the write set, and a
        write implies read permission.

        A lazy-mode attempt buffers its stores privately and never
        undo-logs (memory is untouched until publication), so its
        invariant is an *empty* log instead.
        """
        self.stats.sanitizer_checks += 1
        logged = set(tx.undo_log)
        lazy_mode = getattr(node, "_lazy_mode", None)
        if lazy_mode is not None and lazy_mode():
            if logged:
                self._fail("undo-log",
                           f"lazy attempt carries undo-log entries "
                           f"{sorted(logged)} (stores must stay "
                           f"buffered)", node=node.node)
            return
        if logged != tx.write_set:
            extra = sorted(logged - tx.write_set)
            missing = sorted(tx.write_set - logged)
            self._fail("undo-log",
                       f"undo log != write set (extra {extra}, "
                       f"missing {missing})", node=node.node)
        if not tx.write_set <= tx.read_set:
            self._fail("undo-log",
                       f"written lines missing from read set: "
                       f"{sorted(tx.write_set - tx.read_set)}",
                       node=node.node)


__all__ = ["ProtocolSanitizer"]
