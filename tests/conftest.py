"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.analysis.parallel import forget_last_build
from repro.network.message import Message
from repro.network.topology import Mesh
from repro.sim.config import (
    NetworkConfig,
    PUNOConfig,
    SystemConfig,
    small_config,
)
from repro.sim.engine import Simulator
from repro.sim.stats import Stats
from repro.workloads.base import Gap, NonTxOp, TxInstance, TxOp, Workload
from repro.workloads.generator import read_ops, write_ops


@pytest.fixture(scope="session", autouse=True)
def _session_result_store(tmp_path_factory):
    """Point the default result store at a session temporary directory,
    so neither in-process runs nor the example subprocesses (which
    inherit the environment) write into ``.repro-cache/`` of the
    directory pytest was started from."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR",
                  str(tmp_path_factory.mktemp("result-store")))
        yield


@pytest.fixture(autouse=True)
def _no_kept_workload():
    """Every test starts and ends without a workload kept by
    ``WorkloadSpec.build``, so a test that swaps a workload factory
    never receives a build from before the swap."""
    forget_last_build()
    yield
    forget_last_build()


@pytest.fixture(scope="session")
def claims_store(tmp_path_factory):
    """A result store shared by the tests that run the claims table."""
    return tmp_path_factory.mktemp("claims-store")


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def cfg4() -> SystemConfig:
    """A 4-node (2x2 mesh) configuration for protocol tests."""
    return small_config(4)


@pytest.fixture
def cfg16() -> SystemConfig:
    """The Table II configuration."""
    return SystemConfig()


from repro.testing import RecordingNetwork  # noqa: F401  (fixture dep)


@pytest.fixture
def recording_network(sim):
    stats = Stats(4)
    return RecordingNetwork(sim, stats), stats


# ---------------------------------------------------------------------
# tiny hand-written workloads
# ---------------------------------------------------------------------

def single_tx_program(addrs_read, addrs_write, static_id=0, think=1):
    """One transaction reading then writing the given lines."""
    ops = read_ops(list(addrs_read), think, 0)
    ops += write_ops(list(addrs_write), think, 100)
    return [TxInstance(static_id, ops, 0)]


def idle_program():
    return [Gap(1)]


def make_workload(programs, name="test") -> Workload:
    return Workload(name, programs)


@pytest.fixture
def fig4_workload():
    """The paper's Fig. 4 scenario on 4 nodes around line 0.

    node0 = TxA: long reader of X (oldest);
    node1 = TxB: writer of X arriving later;
    node2/3 = TxC/TxD: short readers of X, many instances.
    """
    X = 0
    prog_a = [TxInstance(0, read_ops([X], 1, 0)
                         + [TxOp(False, 100 + i, 30, 10 + i)
                            for i in range(40)], 0)]
    prog_b = [Gap(120),
              TxInstance(1, [TxOp(False, 200, 5, 50),
                             TxOp(True, X, 5, 51)], 0)]

    def reader(base, static, n_inst=14):
        prog = [Gap(10 + base % 7)]
        for k in range(n_inst):
            ops = read_ops([X], 2, 60 + static)
            ops += [TxOp(False, base + k * 4 + j, 8, 70 + j)
                    for j in range(4)]
            prog.append(TxInstance(static, ops, k))
            prog.append(Gap(10))
        return prog

    return Workload("fig4", [prog_a, prog_b,
                             reader(300, 2), reader(400, 3)])
