"""Program / transaction-trace abstractions.

A node executes a :class:`Program`: a list of items, each either a
:class:`TxInstance` (one dynamic execution of a static transaction — a
concrete list of read/write ops), a :class:`NonTxOp`, or a
:class:`Gap` of non-memory work.  Ops carry a static ``pc`` so the RMW
predictor has something to train on.

A dynamic instance replays the *same* ops when re-executed after an
abort (trace-driven semantics); this keeps runs deterministic and
matches how conflict studies are usually trace-calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union


@dataclass(frozen=True, slots=True)
class TxOp:
    """One transactional memory operation."""

    is_write: bool
    addr: int
    think: int = 1  # non-memory cycles before the access issues
    pc: int = 0  # static instruction id (RMW predictor key)


@dataclass(slots=True)
class TxInstance:
    """One dynamic instance of a static transaction."""

    static_id: int
    ops: List[TxOp]
    instance_id: int = 0

    @property
    def reads(self) -> int:
        return sum(1 for o in self.ops if not o.is_write)

    @property
    def writes(self) -> int:
        return sum(1 for o in self.ops if o.is_write)


@dataclass(frozen=True, slots=True)
class NonTxOp:
    """A non-transactional memory access between transactions."""

    is_write: bool
    addr: int
    think: int = 1
    pc: int = 0


@dataclass(frozen=True, slots=True)
class Gap:
    """Pure compute (no memory traffic) between items."""

    cycles: int


ProgramItem = Union[TxInstance, NonTxOp, Gap]
Program = List[ProgramItem]


@dataclass(slots=True)
class Workload:
    """A named bundle of per-node programs plus metadata."""

    name: str
    programs: List[Program]
    num_static_txs: int = 0
    description: str = ""
    params: dict = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.programs)

    def total_instances(self) -> int:
        return sum(
            1
            for prog in self.programs
            for item in prog
            if isinstance(item, TxInstance)
        )

    def total_ops(self) -> int:
        n = 0
        for prog in self.programs:
            for item in prog:
                if isinstance(item, TxInstance):
                    n += len(item.ops)
                elif isinstance(item, NonTxOp):
                    n += 1
        return n


def validate_program(program: Sequence[ProgramItem]) -> None:
    """Sanity-check a program (used by generators and tests)."""
    for item in program:
        if isinstance(item, TxInstance):
            if not item.ops:
                raise ValueError(f"empty transaction {item.static_id}")
            for op in item.ops:
                if op.addr < 0 or op.think < 0:
                    raise ValueError(f"bad op {op}")
        elif isinstance(item, NonTxOp):
            if item.addr < 0 or item.think < 0:
                raise ValueError(f"bad non-tx op {item}")
        elif isinstance(item, Gap):
            if item.cycles < 0:
                raise ValueError(f"negative gap {item}")
        else:
            raise TypeError(f"unknown program item {item!r}")
