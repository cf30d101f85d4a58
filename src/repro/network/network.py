"""Message transport with flit-accurate traffic accounting.

Endpoints (node controllers and directory controllers) register a
``receive(msg)`` callback per node id.  ``send`` charges the DOR path
latency and schedules delivery; every send credits the Fig. 11 traffic
metric with ``flits x (hops + 1)`` router traversals.

Hot-path notes
--------------

``send`` runs once per coherence message — it is the hottest function
in the simulator.  Four things keep it lean:

* all per-(src, dst) route/latency/traversal quantities come from the
  precomputed :class:`repro.network.topology.Mesh` tables (flat lists
  indexed ``src * n + dst``) when the mesh is small enough to carry
  them; past ``ROUTE_TABLE_MAX_NODES`` the topology runs table-free
  and ``_send_computed`` gets the same quantities per message from
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
  switches the instance between the mode-selected fast send and
  ``_send_full`` (the same shadowing trick ``engine.run`` uses for
  ``post_event``), so unsanitized runs never test ``san is None`` per
  message.

Per-router flit accounting follows the same split.  Table mode keeps
a flat ``n*n`` per-pair list here (dense, tiny) and expands it over
the route table in ``router_flits``.  In computed mode the topology
owns the counts: ``mesh.charge`` credits each message to its route,
and ``mesh.router_flits`` expands them.  For a flat mesh the counts
are per DOR route leg, two lists of ``N * width`` and ``N * height``
entries, so no structure grows with the number of (src, dst) pairs a
run touches (a 1024-node run touches ~96k of them).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, \
    Union

from repro.network.message import DATA_TYPES, Message, MessageType, \
    N_MESSAGE_TYPES
from repro.network.topology import ClusterMesh, Mesh
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # Stats imports message's code tables: import only
    from repro.sim.stats import Stats  # for annotations to avoid a cycle


class Network:
    """Analytic-latency mesh interconnect."""

    def __init__(self, sim: Simulator, mesh: Union[Mesh, ClusterMesh],
                 stats: "Stats", config=None):
        self.sim = sim
        self.mesh = mesh
        self.stats = stats
        # flit geometry comes from the mesh's NetworkConfig
        self._control_flits = mesh.config.control_flits
        self._data_flits = mesh.config.data_flits
        # per-code flit count: one list index instead of a DATA_TYPES
        # membership test per message
        cf, df = self._control_flits, self._data_flits
        self._msg_flits: List[int] = [df if t in DATA_TYPES else cf
                                      for t in MessageType]
        self._n = mesh.num_nodes
        # pre-bound hot references: one load each per send
        self._schedule = sim.call_later  # cold paths / introspection
        self._msg_counts = stats._msg_counts
        # Flat dispatch: handler for (dst, type) at [dst * N + code].
        # Registered tables route each type straight to the owning
        # controller's bound handler; single-callable registrations
        # (tests, harnesses) fan the one callable across all codes.
        self._handlers: List[Optional[Callable[[Message], None]]] = \
            [None] * (self._n * N_MESSAGE_TYPES)
        self._endpoints: Dict[int, Callable[[Message], None]] = {}
        self._san = None  # Optional[ProtocolSanitizer]
        self.messages_sent = 0
        # Mode selection: table sends index the mesh's flat per-pair
        # lists; computed sends call mesh.charge.  Both charge the
        # identical analytic quantities (pinned by test_topology), so
        # the digest stream is mode-independent.
        if mesh.has_tables:
            self._mesh_lat = mesh._lat
            self._mesh_trav = mesh._trav
            # Per-(src, dst) flit counts; expanded to per-router
            # traversals lazily by the router_flits property (hotspot
            # analysis is post-run, so the hot path pays one list
            # increment, not a route walk).
            self._pair_flits = [0] * (self._n * self._n)
            self._fast_impl = self._send_fast
        else:
            self._mesh_lat = self._mesh_trav = None
            self._charge = mesh.charge
            self._pair_flits = None  # the mesh counts flits
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
        self._endpoints[node] = lambda msg, _t=tuple(table): _t[msg.mtype](msg)

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

    def _deliver(self, msg: Message) -> None:
        self._endpoints[msg.dst](msg)

    # ------------------------------------------------------------------
    # hotspot analysis
    # ------------------------------------------------------------------
    @property
    def router_flits(self):
        """Per-router flit traversals (mesh order).

        Materialized on demand from the counts the hot path
        accumulates: table mode walks each DOR route once per *active
        pair*, not once per message; computed mode asks the mesh.
        """
        pf = self._pair_flits
        if pf is None:
            return self.mesh.router_flits()
        n = self._n
        out = [0] * n
        route = self.mesh.route
        for idx, flits in enumerate(pf):
            if flits:
                for router in route(idx // n, idx % n):
                    out[router] += flits
        return out

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
