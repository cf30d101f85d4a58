"""2D mesh topology with dimension-order (X-then-Y) routing.

The mesh is static, so every per-pair quantity the hot send path needs
— DOR route, end-to-end latency, router-traversal multiplier — can be
precomputed at construction into flat tables indexed ``src * n + dst``.
N² is tiny at the 16–64 node scales of Table II (at most 4096 entries),
so small meshes keep the three-list-indexings fast path.  Past
:data:`ROUTE_TABLE_MAX_NODES` the tables stop being tiny — a 1024-node
mesh would precompute ~1M route tuples, ~25 MB of latency/traversal
ints and an O(N²) construction loop — so large meshes switch to
*computed* mode: the same DOR quantities are derived per message from
four integer operations (:meth:`Mesh.pair_cost`), so neither memory
nor construction time grows with the N² pairs.  Both modes evaluate the same analytic formulas
from :class:`repro.sim.config.NetworkConfig`, which remain the single
source of truth; equivalence is pinned by ``tests/test_topology.py``.

Computed mode also owns the per-router flit accounting.
:meth:`Mesh.charge` is the one call a computed-mode send makes: it
returns ``(latency, traversals)`` and credits the message's flits to
its two DOR route legs.  An X leg is one counter per
``(src, destination column)``, a Y leg one per ``(column, source row,
destination row)``: two flat lists of ``N * width`` and ``N * height``
entries (32k each at 1024 nodes), whatever the traffic, which
:meth:`Mesh.router_flits` expands leg by leg after the run.

For scale-out past a single flat mesh, :class:`ClusterMesh` provides a
hierarchical cluster-of-meshes topology (``NetworkConfig.topology ==
"hier"``): nodes tile into fixed-size sub-meshes joined by an express
cluster-level mesh, so cross-chip latency grows with the *cluster*
distance instead of the full node distance.  :func:`build_topology`
selects the implementation from the config.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.config import NetworkConfig

#: Largest mesh whose per-pair tables are precomputed under the
#: default ``precompute="auto"`` policy.  128 nodes = 16k entries per
#: table; the next paper size (256) would already quadruple that.
ROUTE_TABLE_MAX_NODES = 128

#: Hard cap for ``precompute="always"``: forcing tables past this is
#: almost certainly a mistake (hundreds of MB of route tuples), so it
#: raises instead of silently allocating O(N²) memory.
ROUTE_TABLE_HARD_CAP = 2048


def _sum_abs_diff(k: int) -> int:
    """``sum(|a - b|)`` over all ordered pairs ``a, b in range(k)``.

    Closed form ``(k - 1) k (k + 1) / 3`` — three consecutive integers,
    so the division is exact.
    """
    return (k - 1) * k * (k + 1) // 3


class Mesh:
    """Geometry and routing for a width x height mesh.

    Node ids are row-major: node = y * width + x.  Routing is
    deterministic X-then-Y (DOR), matching Table II.

    ``precompute`` selects the per-pair table policy: ``"auto"``
    (tables iff ``num_nodes <= ROUTE_TABLE_MAX_NODES``), ``"never"``
    (always computed — used by the equivalence tests), or ``"always"``
    (force tables; raises past :data:`ROUTE_TABLE_HARD_CAP`).
    """

    def __init__(self, config: NetworkConfig, precompute: str = "auto"):
        self.config = config
        self.width = config.mesh_width
        self.height = config.mesh_height
        self.num_nodes = config.num_nodes
        # Scalars for the computed fast path (and the closed-form
        # average below): latency = trav * rl + hops * per_hop.
        self._rl = config.router_latency
        self._per_hop = config.link_latency + config.load_factor
        self._avg_latency = self._closed_form_avg_latency()
        n = self.num_nodes
        # Flits charged per DOR route leg (see charge): the X leg of
        # src -> dst at src * width + dst_x, the Y leg at
        # (dst_x * height + src_y) * height + dst_y.
        self._x_flits = [0] * (n * self.width)
        self._y_flits = [0] * (n * self.height)
        if precompute not in ("auto", "always", "never"):
            raise ValueError(f"precompute must be auto/always/never, "
                             f"got {precompute!r}")
        if precompute == "always" and n > ROUTE_TABLE_HARD_CAP:
            raise ValueError(
                f"refusing to precompute per-pair route tables for "
                f"{n} nodes ({n * n} entries per table); use "
                f"precompute='auto' to fall back to computed DOR "
                f"routing above {ROUTE_TABLE_MAX_NODES} nodes")
        build = (n <= ROUTE_TABLE_MAX_NODES if precompute == "auto"
                 else precompute == "always")
        # Flat per-(src, dst) tables, indexed src * num_nodes + dst;
        # all None in computed mode (the accessors below and the
        # Network send path then derive each quantity per call).
        self._routes: Optional[List[Tuple[int, ...]]] = None
        self._lat: Optional[List[int]] = None
        self._trav: Optional[List[int]] = None
        if build:
            routes: List[Tuple[int, ...]] = []
            lat: List[int] = []
            trav: List[int] = []  # per-flit router traversals = hops + 1
            for src in range(n):
                for dst in range(n):
                    routes.append(tuple(self._walk_route(src, dst)))
                    lat.append(config.latency(src, dst))
                    trav.append(config.hops(src, dst) + 1)
            self._routes = routes
            self._lat = lat
            self._trav = trav

    @property
    def has_tables(self) -> bool:
        """True when the per-pair fast-path tables were precomputed."""
        return self._lat is not None

    def _closed_form_avg_latency(self) -> float:
        """O(1) evaluation of ``config.avg_latency()``.

        The brute-force average sums ``latency = trav * rl + hops *
        per_hop`` over all distinct pairs; hop counts decompose per
        dimension, so the sum is ``rl * pairs + (rl + per_hop) *
        hopsum`` with ``hopsum`` in closed form.  Integer arithmetic
        end to end, then the same single float division — bit-identical
        to the O(N²) loop (pinned by ``tests/test_topology.py``).
        """
        w, h = self.width, self.height
        n = self.num_nodes
        pairs = n * n - n
        if pairs == 0:
            return 0.0
        hopsum = _sum_abs_diff(w) * h * h + _sum_abs_diff(h) * w * w
        total = self._rl * pairs + (self._rl + self._per_hop) * hopsum
        return total / pairs

    def coords(self, node: int) -> Tuple[int, int]:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
        return self.config.coords(node)

    def node_at(self, x: int, y: int) -> int:
        return y * self.width + x

    def _walk_route(self, src: int, dst: int) -> List[int]:
        """DOR route walk; fills the table (or one computed route)."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        path = [src]
        x, y = sx, sy
        step = 1 if dx > x else -1
        while x != dx:
            x += step
            path.append(self.node_at(x, y))
        step = 1 if dy > y else -1
        while y != dy:
            y += step
            path.append(self.node_at(x, y))
        return path

    def route(self, src: int, dst: int) -> List[int]:
        """Ordered list of routers traversed, inclusive of endpoints.

        X dimension is resolved first, then Y (dimension-order routing).
        """
        if self._routes is not None:
            return list(self._routes[src * self.num_nodes + dst])
        return self._walk_route(src, dst)

    def pair_cost(self, src: int, dst: int) -> Tuple[int, int]:
        """``(latency, router_traversals_per_flit)`` for one pair.

        The computed-mode hot path: four integer ops instead of two
        table indexings, no allocation.  Table mode answers from the
        tables so both modes stay interchangeable.
        """
        if self._lat is not None:
            idx = src * self.num_nodes + dst
            return self._lat[idx], self._trav[idx]
        w = self.width
        hops = (abs(src % w - dst % w)
                + abs(src // w - dst // w))
        trav = hops + 1
        return trav * self._rl + hops * self._per_hop, trav

    def charge(self, src: int, dst: int, flits: int) -> Tuple[int, int]:
        """:meth:`pair_cost` for one message, crediting its ``flits`` to
        the X and Y legs of its DOR route.

        The computed-mode send path: a few integer ops and two list
        increments, so nothing here grows with the pairs a run uses.
        """
        w = self.width
        h = self.height
        sx = src % w
        sy = src // w
        dx = dst % w
        dy = dst // w
        self._x_flits[src * w + dx] += flits
        self._y_flits[(dx * h + sy) * h + dy] += flits
        hops = abs(sx - dx) + abs(sy - dy)
        trav = hops + 1
        return trav * self._rl + hops * self._per_hop, trav

    def router_flits(self) -> List[int]:
        """Per-router flit traversals of every :meth:`charge` so far.

        The X leg of ``src -> dst`` covers row ``src_y`` from ``src_x``
        to ``dst_x``, both ends included; the Y leg covers column
        ``dst_x`` from ``src_y`` to ``dst_y`` without the turn router
        the X leg already counted.
        """
        w, h = self.width, self.height
        out = [0] * self.num_nodes
        for idx, flits in enumerate(self._x_flits):
            if flits:
                src, dx = divmod(idx, w)
                sx = src % w
                row = src - sx
                for x in range(min(sx, dx), max(sx, dx) + 1):
                    out[row + x] += flits
        for idx, flits in enumerate(self._y_flits):
            if flits:
                col_row, dy = divmod(idx, h)
                dx, sy = divmod(col_row, h)
                ys = (range(sy + 1, dy + 1) if sy < dy
                      else range(dy, sy))
                for y in ys:
                    out[y * w + dx] += flits
        return out

    def hops(self, src: int, dst: int) -> int:
        if self._trav is not None:
            return self._trav[src * self.num_nodes + dst] - 1
        w = self.width
        return abs(src % w - dst % w) + abs(src // w - dst // w)

    def latency(self, src: int, dst: int) -> int:
        if self._lat is not None:
            return self._lat[src * self.num_nodes + dst]
        return self.pair_cost(src, dst)[0]

    def router_traversals(self, src: int, dst: int, flits: int) -> int:
        if self._trav is not None:
            return self._trav[src * self.num_nodes + dst] * flits
        return self.pair_cost(src, dst)[1] * flits

    @property
    def avg_latency(self) -> float:
        """Average end-to-end latency over distinct node pairs.

        Used by PUNO's notification backoff: the paper subtracts twice
        the average cache-to-cache latency from the nacker's estimated
        remaining run time.
        """
        return self._avg_latency


class ClusterMesh:
    """Hierarchical cluster-of-meshes topology (``topology="hier"``).

    The global ``mesh_width x mesh_height`` node grid tiles into
    ``cluster_width x cluster_height`` sub-meshes; the clusters
    themselves form an express mesh.  Intra-cluster traffic routes DOR
    exactly like :class:`Mesh`.  Inter-cluster traffic routes DOR to
    the source cluster's gateway (the cluster-origin node), rides the
    express cluster mesh gateway-to-gateway (one express router + link
    per cluster hop, ``cluster_link_latency`` per link), then DOR from
    the destination cluster's gateway to the destination node.

    The interface matches :class:`Mesh` (``coords``/``route``/``hops``/
    ``latency``/``router_traversals``/``pair_cost``/``charge``/
    ``router_flits``/``avg_latency``), so
    :class:`~repro.network.network.Network` and the PUNO backoff work
    unchanged.  All quantities are deterministic functions of the node
    pair; small instances precompute the same flat tables.  Flit
    accounting keeps a per-pair dict: express routes do not split into
    two DOR legs, and no registered scenario runs a hierarchy past 128
    nodes.
    """

    def __init__(self, config: NetworkConfig, precompute: str = "auto"):
        if config.topology != "hier":
            raise ValueError("ClusterMesh requires topology='hier'")
        self.config = config
        self.width = config.mesh_width
        self.height = config.mesh_height
        self.num_nodes = config.num_nodes
        self.cluster_width = config.cluster_width
        self.cluster_height = config.cluster_height
        self.clusters_x = self.width // self.cluster_width
        self.clusters_y = self.height // self.cluster_height
        self._rl = config.router_latency
        self._per_hop = config.link_latency + config.load_factor
        self._express = config.cluster_link_latency + config.router_latency
        self._avg = None  # lazy: O(N²) pair sweep, PUNO-only consumer
        n = self.num_nodes
        # flits charged per pair, keyed src * num_nodes + dst
        self._pair_flits: Dict[int, int] = {}
        if precompute not in ("auto", "always", "never"):
            raise ValueError(f"precompute must be auto/always/never, "
                             f"got {precompute!r}")
        if precompute == "always" and n > ROUTE_TABLE_HARD_CAP:
            raise ValueError(
                f"refusing to precompute per-pair route tables for "
                f"{n} nodes; computed mode handles large hierarchies")
        build = (n <= ROUTE_TABLE_MAX_NODES if precompute == "auto"
                 else precompute == "always")
        self._lat: Optional[List[int]] = None
        self._trav: Optional[List[int]] = None
        self._routes: Optional[List[Tuple[int, ...]]] = None
        if build:
            lat: List[int] = []
            trav: List[int] = []
            routes: List[Tuple[int, ...]] = []
            for src in range(n):
                for dst in range(n):
                    l, t = self._computed_pair_cost(src, dst)
                    lat.append(l)
                    trav.append(t)
                    routes.append(tuple(self._walk_route(src, dst)))
            self._lat = lat
            self._trav = trav
            self._routes = routes

    @property
    def has_tables(self) -> bool:
        return self._lat is not None

    # -- geometry ------------------------------------------------------
    def coords(self, node: int) -> Tuple[int, int]:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
        return self.config.coords(node)

    def node_at(self, x: int, y: int) -> int:
        return y * self.width + x

    def cluster_of(self, node: int) -> Tuple[int, int]:
        """Cluster-grid coordinates of a node's cluster."""
        x, y = node % self.width, node // self.width
        return x // self.cluster_width, y // self.cluster_height

    def gateway(self, cx: int, cy: int) -> int:
        """The gateway node of cluster ``(cx, cy)`` (cluster origin)."""
        return self.node_at(cx * self.cluster_width,
                            cy * self.cluster_height)

    # -- per-pair quantities -------------------------------------------
    def _local_walk(self, src: int, dst: int) -> List[int]:
        """DOR walk in global coordinates (stays inside a cluster
        rectangle when both endpoints share the cluster)."""
        sx, sy = src % self.width, src // self.width
        dx, dy = dst % self.width, dst // self.width
        path = [src]
        x, y = sx, sy
        step = 1 if dx > x else -1
        while x != dx:
            x += step
            path.append(self.node_at(x, y))
        step = 1 if dy > y else -1
        while y != dy:
            y += step
            path.append(self.node_at(x, y))
        return path

    def _computed_pair_cost(self, src: int, dst: int) -> Tuple[int, int]:
        w = self.width
        scx, scy = self.cluster_of(src)
        dcx, dcy = self.cluster_of(dst)
        if scx == dcx and scy == dcy:
            hops = abs(src % w - dst % w) + abs(src // w - dst // w)
            trav = hops + 1
            return trav * self._rl + hops * self._per_hop, trav
        sgw = self.gateway(scx, scy)
        dgw = self.gateway(dcx, dcy)
        h1 = abs(src % w - sgw % w) + abs(src // w - sgw // w)
        h2 = abs(dgw % w - dst % w) + abs(dgw // w - dst // w)
        hc = abs(scx - dcx) + abs(scy - dcy)
        # Leg latencies use the flat-mesh formula; each express cluster
        # hop adds one express router pipeline + cluster link.
        lat = ((h1 + 1) * self._rl + h1 * self._per_hop
               + hc * self._express
               + (h2 + 1) * self._rl + h2 * self._per_hop)
        # Routers visited: src leg (h1+1), one gateway per express hop
        # (hc, ending at dgw), then the dst leg minus its repeated
        # gateway (h2).
        trav = h1 + 1 + hc + h2
        return lat, trav

    def _walk_route(self, src: int, dst: int) -> List[int]:
        scx, scy = self.cluster_of(src)
        dcx, dcy = self.cluster_of(dst)
        if scx == dcx and scy == dcy:
            return self._local_walk(src, dst)
        sgw = self.gateway(scx, scy)
        dgw = self.gateway(dcx, dcy)
        path = self._local_walk(src, sgw)
        # express DOR over the cluster grid, gateways only
        cx, cy = scx, scy
        step = 1 if dcx > cx else -1
        while cx != dcx:
            cx += step
            path.append(self.gateway(cx, cy))
        step = 1 if dcy > cy else -1
        while cy != dcy:
            cy += step
            path.append(self.gateway(cx, cy))
        path.extend(self._local_walk(dgw, dst)[1:])
        return path

    def pair_cost(self, src: int, dst: int) -> Tuple[int, int]:
        if self._lat is not None:
            idx = src * self.num_nodes + dst
            return self._lat[idx], self._trav[idx]
        return self._computed_pair_cost(src, dst)

    def charge(self, src: int, dst: int, flits: int) -> Tuple[int, int]:
        """:meth:`pair_cost` for one message, crediting its ``flits``
        to the pair."""
        idx = src * self.num_nodes + dst
        pf = self._pair_flits
        pf[idx] = pf.get(idx, 0) + flits
        return self.pair_cost(src, dst)

    def router_flits(self) -> List[int]:
        """Per-router flit traversals of every :meth:`charge` so far."""
        n = self.num_nodes
        out = [0] * n
        for idx, flits in self._pair_flits.items():
            for router in self.route(idx // n, idx % n):
                out[router] += flits
        return out

    def route(self, src: int, dst: int) -> List[int]:
        if self._routes is not None:
            return list(self._routes[src * self.num_nodes + dst])
        return self._walk_route(src, dst)

    def hops(self, src: int, dst: int) -> int:
        return self.pair_cost(src, dst)[1] - 1

    def latency(self, src: int, dst: int) -> int:
        return self.pair_cost(src, dst)[0]

    def router_traversals(self, src: int, dst: int, flits: int) -> int:
        return self.pair_cost(src, dst)[1] * flits

    @property
    def avg_latency(self) -> float:
        """Average latency over distinct pairs (lazy: the only consumer
        is PUNO's backoff, so flat runs never pay the O(N²) sweep)."""
        if self._avg is None:
            n = self.num_nodes
            total = 0
            for s in range(n):
                for d in range(n):
                    if s != d:
                        total += self.pair_cost(s, d)[0]
            pairs = n * n - n
            self._avg = total / pairs if pairs else 0.0
        return self._avg


def build_topology(config: NetworkConfig, precompute: str = "auto"):
    """The topology instance a :class:`NetworkConfig` describes."""
    if config.topology == "hier":
        return ClusterMesh(config, precompute=precompute)
    if config.topology != "mesh":
        raise ValueError(f"unknown topology {config.topology!r}; "
                         f"choices: mesh, hier")
    return Mesh(config, precompute=precompute)
