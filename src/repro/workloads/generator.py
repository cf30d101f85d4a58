"""Address-space and sharing-pattern helpers for workload synthesis.

Addresses are cache-line granular integers.  A :class:`SharedRegion`
is a contiguous range of lines; because home nodes interleave on
``line % num_nodes``, any region wider than the node count spreads its
directory load across the chip, as a real heap would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.workloads.base import Gap, Program, TxOp


@dataclass(frozen=True)
class SharedRegion:
    """A contiguous range of cache lines."""

    base: int
    size: int
    name: str = ""

    def pick(self, rng: random.Random) -> int:
        return self.base + rng.randrange(self.size)

    def pick_distinct(self, rng: random.Random, k: int) -> List[int]:
        k = min(k, self.size)
        return [self.base + i for i in rng.sample(range(self.size), k)]

    def slice(self, offset: int, size: int, name: str = "") -> "SharedRegion":
        if offset + size > self.size:
            raise ValueError("slice out of range")
        return SharedRegion(self.base + offset, size, name or self.name)

    def __contains__(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


class AddressSpace:
    """Sequential allocator of non-overlapping regions."""

    def __init__(self, base: int = 0):
        self._next = base

    def region(self, size: int, name: str = "") -> SharedRegion:
        if size <= 0:
            raise ValueError("region size must be positive")
        r = SharedRegion(self._next, size, name)
        self._next += size
        return r

    def private_regions(self, num_nodes: int, size: int,
                        name: str = "private") -> List[SharedRegion]:
        return [self.region(size, f"{name}[{n}]") for n in range(num_nodes)]

    @property
    def used(self) -> int:
        return self._next


def rmw_ops(addrs: Sequence[int], think: int, pc_base: int) -> List[TxOp]:
    """Read-modify-write pairs over ``addrs`` (the kmeans/ssca2 idiom).

    Each address gets a load (trainable by the RMW predictor, stable
    ``pc``) immediately followed by a store to the same line.
    """
    ops: List[TxOp] = []
    for i, a in enumerate(addrs):
        ops.append(TxOp(False, a, think, pc=pc_base + 2 * i))
        ops.append(TxOp(True, a, think, pc=pc_base + 2 * i + 1))
    return ops


def read_ops(addrs: Sequence[int], think: int, pc_base: int) -> List[TxOp]:
    return [TxOp(False, a, think, pc=pc_base + i)
            for i, a in enumerate(addrs)]


def write_ops(addrs: Sequence[int], think: int, pc_base: int) -> List[TxOp]:
    return [TxOp(True, a, think, pc=pc_base + i)
            for i, a in enumerate(addrs)]


def interleave_gaps(items: Program, rng: random.Random,
                    gap_lo: int, gap_hi: int) -> Program:
    """Insert a compute gap between consecutive program items."""
    out: Program = []
    for item in items:
        out.append(item)
        if gap_hi > 0:
            out.append(Gap(rng.randint(gap_lo, max(gap_lo, gap_hi))))
    return out
