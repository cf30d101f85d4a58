"""Message transport with flit-accurate traffic accounting.

Endpoints (node controllers and directory controllers) register a
``receive(msg)`` callback per node id.  ``send`` charges the DOR path
latency and schedules delivery; every send credits the Fig. 11 traffic
metric with ``flits x (hops + 1)`` router traversals.

Hot-path notes
--------------

``send`` runs once per coherence message — it is the hottest function
in the simulator.  Four things keep it lean:

* all per-(src, dst) latency/traversal quantities come from the
  :class:`repro.network.topology.Mesh` cost tables (flat lists indexed
  ``src * n + dst``) when the mesh is small enough to carry them; past
  ``ROUTE_TABLE_MAX_NODES`` the mesh carries none and
  ``_send_computed`` gets the same quantities per message from
  ``mesh.charge`` (a handful of integer ops, no per-pair table);
* everything keyed by message type indexes flat lists with the dense
  ``MessageType`` int code — flit counts (``_msg_flits``), the stats
  accumulator (``Stats._msg_counts``), and the delivery handler itself
  (``_handlers[dst * N + code]``), so the path neither hashes enum
  objects nor branches on ``DATA_TYPES`` membership;
* delivery schedules the destination's per-type bound handler directly
  (via ``Simulator.enqueue``, the unchecked Event-free ``call_later``
  — deliveries are never cancelled), so delivery costs zero
  intermediate Python calls;
* the sanitizer check is hoisted out entirely: assigning ``san``
  rebinds the instance's ``send`` attribute to the mode-selected fast
  send or to ``_send_full``, so unsanitized runs never test
  ``san is None`` per message.

Per-router flit accounting lives in the mesh for both sends: the
table send increments the mesh's flat per-pair list, the computed send
lets ``mesh.charge`` credit the message's DOR route legs, and
``router_flits`` asks the mesh to expand whichever store it keeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Set

from repro.network.message import DATA_TYPES, Message, MessageType, \
    N_MESSAGE_TYPES
from repro.network.topology import Mesh
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # Stats imports message's code tables: import only
    from repro.sim.stats import Stats  # for annotations to avoid a cycle


class Network:
    """Analytic-latency mesh interconnect."""

    def __init__(self, sim: Simulator, mesh: Mesh, stats: "Stats"):
        self.sim = sim
        self.mesh = mesh
        self.stats = stats
        # per-code flit count (flit geometry from the mesh's
        # NetworkConfig): one list index instead of a DATA_TYPES
        # membership test per message
        cf = mesh.config.control_flits
        df = mesh.config.data_flits
        self._msg_flits: List[int] = [df if t in DATA_TYPES else cf
                                      for t in MessageType]
        self._n = mesh.num_nodes
        # pre-bound hot references: one load each per send
        self._msg_counts = stats._msg_counts
        # Flat dispatch: handler for (dst, type) at [dst * N + code].
        # Registered tables route each type straight to the owning
        # controller's bound handler; single-callable registrations
        # (tests, harnesses) fan the one callable across all codes.
        self._handlers: List[Optional[Callable[[Message], None]]] = \
            [None] * (self._n * N_MESSAGE_TYPES)
        self._endpoints: Set[int] = set()
        self._san = None  # Optional[ProtocolSanitizer]
        self.messages_sent = 0
        # Send selection: the table send indexes the mesh's flat
        # per-pair lists; the computed send calls mesh.charge.  Both
        # charge the same closed-form quantities, so the digest stream
        # does not depend on which one runs.
        if mesh.has_tables:
            self._mesh_lat = mesh._lat
            self._mesh_trav = mesh._trav
            self._pair_flits = mesh._pair_flits
            self._fast_impl = self._send_fast
        else:
            self._charge = mesh.charge
            self._fast_impl = self._send_computed
        self.send = self._fast_impl

    # ------------------------------------------------------------------
    # sanitizer attachment selects the send implementation
    # ------------------------------------------------------------------
    @property
    def san(self):
        return self._san

    @san.setter
    def san(self, sanitizer) -> None:
        self._san = sanitizer
        self.send = self._send_full if sanitizer is not None \
            else self._fast_impl

    def register(self, node: int, handler: Callable[[Message], None]) -> None:
        """Register one callable for every message type at ``node``."""
        self.register_table(node, [handler] * N_MESSAGE_TYPES)

    def register_table(self, node: int,
                       table: Sequence[Callable[[Message], None]]) -> None:
        """Register a per-type handler table (dense code order) for
        ``node`` — delivery dispatches straight to ``table[code]``."""
        if node in self._endpoints:
            raise ValueError(f"endpoint {node} already registered")
        if len(table) != N_MESSAGE_TYPES:
            raise ValueError(f"endpoint table for node {node} has "
                             f"{len(table)} entries, need {N_MESSAGE_TYPES}")
        base = node * N_MESSAGE_TYPES
        for code, handler in enumerate(table):
            self._handlers[base + code] = handler
        self._endpoints.add(node)

    def _send_fast(self, msg: Message, extra_delay: int = 0) -> None:
        """Inject ``msg``; it is delivered after the DOR path latency.

        ``extra_delay`` models source-side occupancy (e.g. directory
        lookup) without charging it to the network.
        """
        mtype = msg.mtype
        dst = msg.dst
        # Handler lookup first: it doubles as the dst-validity check
        # guarding the flat-table indexings below.
        if not 0 <= dst < self._n:
            raise KeyError(f"no endpoint registered for node {dst}")
        handler = self._handlers[dst * N_MESSAGE_TYPES + mtype]
        if handler is None:
            raise KeyError(f"no endpoint registered for node {dst}")
        flits = self._msg_flits[mtype]
        idx = msg.src * self._n + dst
        stats = self.stats
        stats.flits_injected += flits
        stats.flit_router_traversals += self._mesh_trav[idx] * flits
        self._pair_flits[idx] += flits
        self._msg_counts[mtype] += 1
        self.messages_sent += 1
        if stats.tracer is not None:
            stats.tracer.emit(
                "msg", self.sim.now, type=mtype.name, addr=msg.addr,
                src=msg.src, dst=dst, req=msg.requester,
                u=msg.u_bit, mp=msg.mp_bit)
        # Deliveries are the dominant event source: unchecked enqueue
        # (delays here are always non-negative ints).
        sim = self.sim
        sim.enqueue(sim.now + self._mesh_lat[idx] + extra_delay,
                    handler, (msg,))

    def _send_computed(self, msg: Message, extra_delay: int = 0) -> None:
        """Table-free twin of ``_send_fast`` for large meshes.

        ``mesh.charge`` returns latency and traversals (inline XY
        arithmetic) and credits the flits to the route, so nothing
        here is O(N²) in memory.
        """
        mtype = msg.mtype
        dst = msg.dst
        if not 0 <= dst < self._n:
            raise KeyError(f"no endpoint registered for node {dst}")
        handler = self._handlers[dst * N_MESSAGE_TYPES + mtype]
        if handler is None:
            raise KeyError(f"no endpoint registered for node {dst}")
        flits = self._msg_flits[mtype]
        lat, trav = self._charge(msg.src, dst, flits)
        stats = self.stats
        stats.flits_injected += flits
        stats.flit_router_traversals += trav * flits
        self._msg_counts[mtype] += 1
        self.messages_sent += 1
        if stats.tracer is not None:
            stats.tracer.emit(
                "msg", self.sim.now, type=mtype.name, addr=msg.addr,
                src=msg.src, dst=dst, req=msg.requester,
                u=msg.u_bit, mp=msg.mp_bit)
        sim = self.sim
        sim.enqueue(sim.now + lat + extra_delay, handler, (msg,))

    def _send_full(self, msg: Message, extra_delay: int = 0) -> None:
        """The mode-selected fast send plus the per-message sanitizer
        check."""
        self._san.check_message(msg)
        self._fast_impl(msg, extra_delay)

    # ``send`` is an instance attribute bound in __init__/san setter;
    # this class-level alias keeps Network.send introspectable.
    send = _send_fast

    # ------------------------------------------------------------------
    # hotspot analysis
    # ------------------------------------------------------------------
    @property
    def router_flits(self) -> List[int]:
        """Per-router flit traversals (mesh order), expanded on demand
        by the mesh from the counts the hot path accumulates."""
        return self.mesh.router_flits()

    def hotspots(self, top: int = 5):
        """The ``top`` busiest routers as (node, flit-traversals)."""
        ranked = sorted(enumerate(self.router_flits),
                        key=lambda kv: kv[1], reverse=True)
        return ranked[:top]

    def utilization_grid(self) -> str:
        """ASCII heat view of per-router flit traversals (mesh layout)."""
        w, h = self.mesh.width, self.mesh.height
        rf = self.router_flits
        vmax = max(rf) or 1
        shades = " .:-=+*#%@"
        lines = []
        for y in range(h):
            row = []
            for x in range(w):
                v = rf[self.mesh.node_at(x, y)]
                row.append(shades[min(int(9 * v / vmax), 9)] * 2)
            lines.append("".join(row))
        return "\n".join(lines)
