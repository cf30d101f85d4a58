"""2D mesh topology with dimension-order (X-then-Y) routing.

The mesh is static, so its per-pair cost has a closed form
(:meth:`Mesh.pair_cost`): ``hops`` is the Manhattan distance, a
message crosses ``hops + 1`` routers and ``hops`` links, so its
latency is ``(hops + 1) * router_latency + hops * (link_latency +
load_factor)``.  That one function is the source of every latency and
traversal count the network charges.

Up to :data:`ROUTE_TABLE_MAX_NODES` nodes the mesh also evaluates it
once per pair into two flat tables indexed ``src * n + dst``, which
the hot table send reads with two list indexings.  N² is tiny at the
16–64 node scales of Table II (at most 4096 entries), and that send
measures faster than the computed one on the 16-node paper grid.  Past
the limit the tables stop being tiny — a 1024-node mesh would carry
two million-entry lists and an O(N²) construction loop — so a large
mesh carries none, and the computed send asks :meth:`Mesh.charge` for
each message's cost instead.

The mesh also owns the per-router flit accounting of both sends.  A
mesh with tables counts flits per ``(src, dst)`` pair in a flat
``n * n`` list (``_pair_flits``, bound by the table send).  A mesh
without them counts per DOR route leg in :meth:`charge`: an X leg is
one counter per ``(src, destination column)``, a Y leg one per
``(column, source row, destination row)``, two flat lists of
``N * width`` and ``N * height`` entries (32k each at 1024 nodes),
whatever the traffic.  :meth:`Mesh.router_flits` expands either store
after the run.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim.config import NetworkConfig

#: Largest mesh that carries per-pair cost tables.  128 nodes = 16k
#: entries per table; the next paper size (256) would already
#: quadruple that.
ROUTE_TABLE_MAX_NODES = 128


def _sum_abs_diff(k: int) -> int:
    """``sum(|a - b|)`` over all ordered pairs ``a, b in range(k)``.

    Closed form ``(k - 1) k (k + 1) / 3`` — three consecutive integers,
    so the division is exact.
    """
    return (k - 1) * k * (k + 1) // 3


class Mesh:
    """Geometry, routing and flit accounting for a width x height mesh.

    Node ids are row-major: node = y * width + x.  Routing is
    deterministic X-then-Y (DOR), matching Table II.
    """

    def __init__(self, config: NetworkConfig):
        self.config = config
        self.width = w = config.mesh_width
        self.height = h = config.mesh_height
        self.num_nodes = n = config.num_nodes
        # latency = trav * rl + hops * per_hop (see pair_cost)
        self._rl = config.router_latency
        self._per_hop = config.link_latency + config.load_factor
        self._avg_latency = self._closed_form_avg_latency()
        # Flat per-(src, dst) tables, indexed src * num_nodes + dst,
        # and the flit store that goes with each send (module doc).
        self._lat: Optional[List[int]] = None
        self._trav: Optional[List[int]] = None
        self._pair_flits: Optional[List[int]] = None
        self._x_flits: Optional[List[int]] = None
        self._y_flits: Optional[List[int]] = None
        if n <= ROUTE_TABLE_MAX_NODES:
            costs = [self.pair_cost(src, dst)
                     for src in range(n) for dst in range(n)]
            self._lat = [lat for lat, _ in costs]
            self._trav = [trav for _, trav in costs]
            self._pair_flits = [0] * (n * n)
        else:
            # The X leg of src -> dst at src * width + dst_x, the Y leg
            # at (dst_x * height + src_y) * height + dst_y.
            self._x_flits = [0] * (n * w)
            self._y_flits = [0] * (n * h)

    @property
    def has_tables(self) -> bool:
        """True when the per-pair cost tables were built."""
        return self._lat is not None

    def _closed_form_avg_latency(self) -> float:
        """Average :meth:`latency` over distinct pairs, in O(1).

        Hop counts decompose per dimension, so the sum over pairs is
        ``rl * pairs + (rl + per_hop) * hopsum`` with ``hopsum`` in
        closed form.  Integer arithmetic end to end, then one float
        division — bit-identical to the O(N²) average (pinned by
        ``tests/test_topology_scale.py``).
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
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        return y * self.width + x

    def route(self, src: int, dst: int) -> List[int]:
        """Ordered list of routers traversed, inclusive of endpoints.

        X dimension is resolved first, then Y (dimension-order routing).
        """
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

    def pair_cost(self, src: int, dst: int) -> Tuple[int, int]:
        """``(latency, router_traversals_per_flit)`` for one pair: the
        closed form every table entry and every charge comes from."""
        w = self.width
        hops = (abs(src % w - dst % w)
                + abs(src // w - dst // w))
        trav = hops + 1
        return trav * self._rl + hops * self._per_hop, trav

    def charge(self, src: int, dst: int, flits: int) -> Tuple[int, int]:
        """:meth:`pair_cost` for one message, crediting its ``flits`` to
        the X and Y legs of its DOR route.

        The computed send path: a few integer ops and two list
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
        """Per-router flit traversals of every message sent so far.

        With tables, each active pair's count is walked over its route
        once.  Without, the X leg of ``src -> dst`` covers row ``src_y``
        from ``src_x`` to ``dst_x``, both ends included; the Y leg
        covers column ``dst_x`` from ``src_y`` to ``dst_y`` without the
        turn router the X leg already counted.
        """
        w, h = self.width, self.height
        n = self.num_nodes
        out = [0] * n
        if self._pair_flits is not None:
            for idx, flits in enumerate(self._pair_flits):
                if flits:
                    for router in self.route(idx // n, idx % n):
                        out[router] += flits
            return out
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
        return self.pair_cost(src, dst)[1] - 1

    def latency(self, src: int, dst: int) -> int:
        return self.pair_cost(src, dst)[0]

    @property
    def avg_latency(self) -> float:
        """Average end-to-end latency over distinct node pairs.

        Used by PUNO's notification backoff: the paper subtracts twice
        the average cache-to-cache latency from the nacker's estimated
        remaining run time.
        """
        return self._avg_latency
