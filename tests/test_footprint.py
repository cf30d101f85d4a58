"""Per-node footprint guard: the classes a mesh holds one of per node,
per resident line or per program item carry no instance ``__dict__``.

At 1024 nodes a node controller with a private dict costs ~1.6 KB and
a dict lookup on every ``self.x``; a slot costs neither.  A subclass or
new attribute that silently regrows a ``__dict__`` fails here."""

import copy
import pickle

import pytest

from repro.htm.lazy import HybridNodeController
from repro.schemes import scheme_names
from repro.sim.config import SystemConfig
from repro.system import System
from repro.workloads.base import Gap, NonTxOp, TxInstance, TxOp, Workload
from repro.workloads.stamp import make_stamp_workload


def _workload() -> Workload:
    return make_stamp_workload("intruder", num_nodes=16, scale=0.05, seed=0)


def _system(scheme, **kwargs) -> System:
    cfg = SystemConfig(seed=1)
    return System(cfg, _workload(), scheme, **kwargs)


def _assert_slotted(system: System) -> None:
    for node in system.nodes:
        assert not hasattr(node, "__dict__"), type(node).__name__
        assert not hasattr(node.l1, "__dict__")
        for line in node.l1.lines():
            assert not hasattr(line, "__dict__")


@pytest.mark.parametrize("scheme", scheme_names())
def test_scheme_nodes_carry_no_instance_dict(scheme):
    system = _system(scheme)
    system.run()
    assert sum(len(node.l1) for node in system.nodes) > 0
    _assert_slotted(system)


def test_hybrid_nodes_carry_no_instance_dict():
    system = _system("baseline", node_cls=HybridNodeController)
    system.run()
    _assert_slotted(system)


def test_op_records_carry_no_instance_dict():
    wl = _workload()
    kinds = {type(item) for prog in wl.programs for item in prog}
    assert TxInstance in kinds
    records = [wl, TxOp(True, 1), NonTxOp(False, 2), Gap(3),
               TxInstance(0, [TxOp(False, 4)])]
    records += [item for prog in wl.programs for item in prog]
    records += [op for prog in wl.programs for item in prog
                if isinstance(item, TxInstance) for op in item.ops]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


@pytest.mark.parametrize("clone", [
    lambda wl: pickle.loads(pickle.dumps(wl)),
    lambda wl: pickle.loads(pickle.dumps(wl, protocol=2)),
    copy.deepcopy,
], ids=["pickle", "pickle-protocol-2", "deepcopy"])
def test_built_workload_round_trips(clone):
    wl = _workload()
    wl.programs[0].extend([NonTxOp(True, 5, think=2, pc=9), Gap(7)])
    back = clone(wl)
    assert back == wl and back is not wl
    assert back.programs[0][-2:] == [NonTxOp(True, 5, think=2, pc=9), Gap(7)]
    assert back.total_instances() == wl.total_instances()
    assert back.total_ops() == wl.total_ops()
    # frozen records stay frozen after the trip
    op = next(item for item in back.programs[0] if isinstance(item, TxInstance)
              ).ops[0]
    with pytest.raises(AttributeError):
        op.addr = -1
