"""Synthetic contention workload *families* for the scenario subsystem.

The STAMP analogues (:mod:`repro.workloads.stamp`) reproduce the
paper's Table I applications at its 16-node envelope.  The families
here are the scaling counterpart: each one isolates a single
contention mechanism and is built to stay meaningful when the mesh
grows to 32/64 nodes, where sharer counts, priority spreads and
P-Buffer/TxLB pressure exceed anything the paper measured.

* ``hotspot``   — every node read-modify-writes a tiny set of hot
  lines; sharer lists stay short but write-write contention scales
  with the node count (UD-pointer churn, rollover pressure).
* ``prodcons``  — producer-consumer chains around the mesh: node *i*
  writes a slot buffer that node *i+1* reads, so conflicts are
  neighbour-wise and the conflict graph is a ring whose diameter grows
  with the mesh (stale P-Buffer entries from far-away nodes).
* ``zipf``      — shared counters picked from a Zipf distribution: a
  few lines are read by a large fraction of the chip while the tail is
  nearly private, giving the wide sharer lists that drive false
  aborting (the paper's Figs. 2-3 mechanism) at scale.  The builder
  computes the Zipf CDF once per workload (:func:`zipf_cdf`) and
  draws every rank by bisection over it (:func:`zipf_ranks`), so
  generation costs O(log lines) per rank, not O(lines) per
  transaction.
* ``rw_mix``    — long read-only scanners against short writers, the
  asymmetric population whose polling-writer/short-reader interaction
  is the false-aborting pathology; fractions are per-node so the mix
  is stable across mesh sizes.

Every builder shares the STAMP generator signature
``(num_nodes, scale, seed, **knobs)`` — ``scale`` multiplies per-node
instance counts (smoke variants use tiny scales) — and is registered
in :data:`FAMILIES` so picklable
:class:`~repro.analysis.parallel.WorkloadSpec` descriptors can rebuild
family workloads inside sweep worker processes.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.sim.rng import RngFactory
from repro.workloads.base import Gap, Program, TxInstance, TxOp, Workload
from repro.workloads.generator import (
    AddressSpace,
    read_ops,
    rmw_ops,
    write_ops,
)


def _instances(base: int, scale: float) -> int:
    """Scaled per-node instance count, floor 1."""
    return max(1, round(base * scale))


def zipf_cdf(n: int, s: float) -> List[float]:
    """Cumulative Zipf(s) distribution over ranks ``[0, n)``.

    Weight ``1 / (r + 1) ** s`` per rank, accumulated left to right and
    divided by the total at each step.  Builders compute it once per
    workload and share it across every draw.
    """
    weights = [1.0 / (r + 1) ** s for r in range(n)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def zipf_ranks(rng: random.Random, cdf: List[float], k: int) -> List[int]:
    """Draw ``k`` distinct ranks in ``[0, len(cdf))`` by inverse CDF.

    Each uniform draw ``u`` maps to the first rank whose CDF reaches
    it, ``bisect_left(cdf, u, 0, n - 1)``, a rank in ``[0, n - 1]``.
    The bound ``hi = n - 1``, not ``n``, is the one of the hand-written
    binary search this replaces (``lo, hi = 0, n - 1``, narrowing on
    ``cdf[mid] < u``), so it makes the same picks, including the clamp
    to the last rank when float rounding leaves ``cdf[-1]`` below
    ``u``.  Duplicates
    are resolved by walking to the next free rank, which preserves the
    head-heavy skew while keeping the draw distinct.  Exactly one
    ``rng.random()`` per rank drawn.
    """
    n = len(cdf)
    picked: List[int] = []
    taken = set()
    for _ in range(min(k, n)):
        r = bisect_left(cdf, rng.random(), 0, n - 1)
        while r in taken:
            r = (r + 1) % n
        taken.add(r)
        picked.append(r)
    return picked


# =====================================================================
# builders
# =====================================================================

def make_hotspot_workload(num_nodes: int = 16, scale: float = 1.0,
                          seed: int = 0, instances: int = 16,
                          hot_lines: int = 4, extra_reads: int = 4,
                          think: int = 2, gap: int = 60,
                          name: str = "hotspot") -> Workload:
    """Hotspot RMW: every node increments lines from one tiny region.

    The canonical shared-counter idiom — all contention funnels through
    ``hot_lines`` addresses, so every directory entry involved has the
    full chip on its interested-party list and the P-Buffer sees
    priority updates from every node between rollovers.
    """
    if hot_lines <= 0:
        raise ValueError("hot_lines must be positive")
    rf = RngFactory(seed)
    space = AddressSpace()
    hot = space.region(hot_lines, "hot")
    cold = space.region(max(num_nodes * 8, 64), "cold")
    n_inst = _instances(instances, scale)

    programs: List[Program] = []
    for n in range(num_nodes):
        rng = rf.stream(f"node{n}")
        prog: Program = []
        for i in range(n_inst):
            ops: List[TxOp] = []
            ops += rmw_ops([hot.pick(rng)], think, 0)
            if extra_reads:
                ops += read_ops(cold.pick_distinct(rng, extra_reads),
                                think, 100)
            prog.append(TxInstance(0, ops, i))
            if gap:
                prog.append(Gap(rng.randint(max(1, gap // 2), gap)))
        programs.append(prog)

    return Workload(
        name, programs, num_static_txs=1,
        description="hotspot RMW counters (all-to-few write contention)",
        params={"hot_lines": hot_lines, "extra_reads": extra_reads,
                "instances": n_inst, "think": think, "gap": gap},
    )


def make_prodcons_workload(num_nodes: int = 16, scale: float = 1.0,
                           seed: int = 0, instances: int = 12,
                           slots: int = 4, payload_reads: int = 3,
                           think: int = 2, gap: int = 50,
                           name: str = "prodcons") -> Workload:
    """Producer-consumer chains: node *i* fills the buffer node *i+1*
    drains (mod N), one transaction per slot visit.

    Conflicts are strictly neighbour-wise on the ring, so the conflict
    graph diameter grows with the mesh — a far producer's priority sits
    in a directory's P-Buffer long past its usefulness, which is
    exactly the UD-pointer-staleness regime the scaled scenarios probe.
    """
    if slots <= 0:
        raise ValueError("slots must be positive")
    rf = RngFactory(seed)
    space = AddressSpace()
    buffers = [space.region(slots, f"buf{n}") for n in range(num_nodes)]
    payload = space.region(max(num_nodes * 4, 32), "payload")
    n_inst = _instances(instances, scale)

    programs: List[Program] = []
    for n in range(num_nodes):
        rng = rf.stream(f"node{n}")
        mine = buffers[n]  # produced by node n
        upstream = buffers[(n - 1) % num_nodes]  # consumed by node n
        prog: Program = []
        for i in range(n_inst):
            # produce: write one slot of my buffer (RMW: head pointer
            # semantics — readers of the slot see the version)
            slot = mine.base + (i % slots)
            ops: List[TxOp] = list(rmw_ops([slot], think, 0))
            prog.append(TxInstance(0, ops, 2 * i))
            prog.append(Gap(rng.randint(max(1, gap // 2), gap)))
            # consume: read the matching upstream slot + payload
            up = upstream.base + (i % slots)
            cops: List[TxOp] = read_ops([up], think, 200)
            if payload_reads:
                cops += read_ops(payload.pick_distinct(rng, payload_reads),
                                 think, 300)
            prog.append(TxInstance(1, cops, 2 * i + 1))
            prog.append(Gap(rng.randint(max(1, gap // 2), gap)))
        programs.append(prog)

    return Workload(
        name, programs, num_static_txs=2,
        description="producer-consumer ring (neighbour-wise conflicts)",
        params={"slots": slots, "payload_reads": payload_reads,
                "instances": n_inst, "think": think, "gap": gap},
    )


def make_zipf_workload(num_nodes: int = 16, scale: float = 1.0,
                       seed: int = 0, instances: int = 14,
                       lines: int = 256, zipf_s: float = 1.2,
                       tx_reads: int = 6, tx_writes: int = 1,
                       think: int = 2, gap: int = 50,
                       name: str = "zipf") -> Workload:
    """Zipf-shared counters: reads and RMW targets drawn Zipf(s) from a
    shared array, so a handful of head lines accumulate chip-wide
    sharer lists while the tail stays quiet.

    The head lines are where multicast invalidation kills the most
    readers per writer — the false-aborting driver — and where PUNO's
    single-UD-pointer-per-entry approximation is under the most
    pressure (many plausible oldest readers per line).
    """
    if tx_writes > tx_reads:
        raise ValueError("tx_writes must be <= tx_reads (RMW head)")
    rf = RngFactory(seed)
    space = AddressSpace()
    shared = space.region(lines, "zipf")
    n_inst = _instances(instances, scale)
    cdf = zipf_cdf(lines, zipf_s)

    programs: List[Program] = []
    for n in range(num_nodes):
        rng = rf.stream(f"node{n}")
        prog: Program = []
        for i in range(n_inst):
            ranks = zipf_ranks(rng, cdf, tx_reads)
            addrs = [shared.base + r for r in ranks]
            ops: List[TxOp] = []
            # the hottest-ranked picks become RMW counters, the rest
            # plain reads — writes concentrate on the distribution head
            hot = sorted(range(len(addrs)), key=lambda j: ranks[j])
            wset = {addrs[j] for j in hot[:tx_writes]}
            ops += rmw_ops(sorted(wset), think, 0)
            ops += read_ops([a for a in addrs if a not in wset],
                            think, 100)
            prog.append(TxInstance(0, ops, i))
            if gap:
                prog.append(Gap(rng.randint(max(1, gap // 2), gap)))
        programs.append(prog)

    return Workload(
        name, programs, num_static_txs=1,
        description="Zipf-shared counters (head-heavy sharer lists)",
        params={"lines": lines, "zipf_s": zipf_s, "tx_reads": tx_reads,
                "tx_writes": tx_writes, "instances": n_inst,
                "think": think, "gap": gap},
    )


def make_rw_mix_workload(num_nodes: int = 16, scale: float = 1.0,
                         seed: int = 0, instances: int = 12,
                         shared_lines: int = 48, scan_reads: int = 24,
                         writer_writes: int = 2, reader_reads: int = 4,
                         writer_fraction: float = 0.25,
                         scanner_fraction: float = 0.25,
                         think: int = 2, gap: int = 60,
                         name: str = "rw_mix") -> Workload:
    """Long-reader/short-writer mix — the Fig. 4 pathology as a family.

    Three populations per node, drawn per instance: long read-only
    *scanners* (the persistent nackers), short *writers* whose nacked
    polling kills bystanders, and short read-only *readers* (the
    false-abort victims).  Fractions are per-node so scaling the mesh
    multiplies every population together — at 64 nodes a hot line can
    have dozens of concurrent readers under one polling writer.
    """
    if not 0.0 <= writer_fraction <= 1.0:
        raise ValueError("writer_fraction must be in [0, 1]")
    if not 0.0 <= scanner_fraction <= 1.0 - writer_fraction:
        raise ValueError("writer_fraction + scanner_fraction must be <= 1")
    rf = RngFactory(seed)
    space = AddressSpace()
    shared = space.region(shared_lines, "shared")
    n_inst = _instances(instances, scale)

    programs: List[Program] = []
    for n in range(num_nodes):
        rng = rf.stream(f"node{n}")
        prog: Program = []
        for i in range(n_inst):
            roll = rng.random()
            ops: List[TxOp] = []
            if roll < writer_fraction:
                static_id = 0
                reads = shared.pick_distinct(rng, max(writer_writes, 2))
                ops += read_ops(reads, think, 0)
                ops += write_ops(rng.sample(reads, writer_writes),
                                 think, 500)
            elif roll < writer_fraction + scanner_fraction:
                static_id = 2
                k = min(shared_lines, scan_reads)
                ops += read_ops(shared.pick_distinct(rng, k),
                                3 * think, 2000)
            else:
                static_id = 1
                ops += read_ops(shared.pick_distinct(rng, reader_reads),
                                max(1, think // 2), 1000)
            prog.append(TxInstance(static_id, ops, i))
            if gap:
                prog.append(Gap(rng.randint(max(1, gap // 2), gap)))
        programs.append(prog)

    return Workload(
        name, programs, num_static_txs=3,
        description="long-reader/short-writer mix (false-abort bait)",
        params={"shared_lines": shared_lines, "scan_reads": scan_reads,
                "writer_writes": writer_writes,
                "reader_reads": reader_reads,
                "writer_fraction": writer_fraction,
                "scanner_fraction": scanner_fraction,
                "instances": n_inst, "think": think, "gap": gap},
    )


# =====================================================================
# registry
# =====================================================================

@dataclass(frozen=True)
class FamilyMeta:
    """Registry entry: builder + the contention mechanism it isolates."""

    name: str
    builder: Callable[..., Workload]
    description: str


FAMILIES: Dict[str, FamilyMeta] = {
    "hotspot": FamilyMeta(
        "hotspot", make_hotspot_workload,
        "hotspot RMW counters: all-to-few write contention"),
    "prodcons": FamilyMeta(
        "prodcons", make_prodcons_workload,
        "producer-consumer ring: neighbour-wise conflict chains"),
    "zipf": FamilyMeta(
        "zipf", make_zipf_workload,
        "Zipf-shared counters: head-heavy sharer lists"),
    "rw_mix": FamilyMeta(
        "rw_mix", make_rw_mix_workload,
        "long readers vs short polling writers (false-abort bait)"),
}


def make_family_workload(family: str, num_nodes: int = 16,
                         scale: float = 1.0, seed: int = 0,
                         **params) -> Workload:
    """Build one family workload by registry name."""
    meta = FAMILIES.get(family)
    if meta is None:
        raise KeyError(f"unknown workload family {family!r}; "
                       f"choices: {sorted(FAMILIES)}")
    return meta.builder(num_nodes=num_nodes, scale=scale, seed=seed,
                        **params)
