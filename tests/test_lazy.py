"""Tests for the lazy conflict-detection extension."""

import pytest

from repro.htm.lazy import CommitToken, LazyNodeController
from repro.sim.config import small_config
from repro.system import System
from repro.workloads.base import Gap, TxInstance, TxOp, Workload
from repro.workloads.generator import read_ops, rmw_ops, write_ops
from repro.workloads.synthetic import make_synthetic_workload


def _run_lazy(programs, cfg=None, cm="baseline"):
    cfg = cfg or small_config(len(programs))
    wl = Workload("t", programs)
    system = System(cfg, wl, cm, node_cls=LazyNodeController)
    return system, system.run(max_cycles=10_000_000)


# ---------------------------------------------------------------------
# commit token
# ---------------------------------------------------------------------

def test_token_fifo():
    token = CommitToken()
    order = []
    token.acquire(0, lambda: order.append(0))
    token.acquire(1, lambda: order.append(1))
    token.acquire(2, lambda: order.append(2))
    assert order == [0]
    token.release(0)
    token.release(1)
    assert order == [0, 1, 2]
    assert token.grants == 3
    assert token.max_queue == 2


def test_token_release_by_non_holder_rejected():
    token = CommitToken()
    token.acquire(0, lambda: None)
    with pytest.raises(AssertionError, match="release by non-holder"):
        token.release(1)


def test_token_release_check_survives_python_O():
    """The non-holder check is an explicit raise, not an ``assert``: a
    free token rejects a release even with assertions stripped, and a
    rejected release leaves the holder in place."""
    token = CommitToken()
    with pytest.raises(AssertionError, match="release by non-holder"):
        token.release(0)
    token.acquire(2, lambda: None)
    with pytest.raises(AssertionError, match="release by non-holder"):
        token.release(0)
    assert token.holder == 2


# ---------------------------------------------------------------------
# lazy semantics
# ---------------------------------------------------------------------

def test_single_writer_publishes_at_commit():
    system, result = _run_lazy([[TxInstance(0, write_ops([0], 1, 0))],
                                [Gap(1)], [Gap(1)], [Gap(1)]])
    assert result.stats.tx_committed == 1
    assert system.global_value(0) == 1


def test_store_buffered_until_commit():
    """Mid-transaction, the store is invisible to the memory system."""
    progs = [[TxInstance(0, [TxOp(True, 0, 1, 0),
                             TxOp(False, 100, 2000, 1)])],
             [Gap(300), TxInstance(0, read_ops([0], 1, 2))],
             [Gap(1)], [Gap(1)]]
    system, result = _run_lazy(progs)
    # the reader committed long before the writer published and saw the
    # pre-transaction value; no conflict was ever signalled to it
    assert result.stats.tx_committed == 2
    assert system.global_value(0) == 1


def test_read_own_write_forwarding():
    ops = [TxOp(True, 0, 1, 0), TxOp(False, 0, 1, 1),
           TxOp(True, 0, 1, 2)]
    system, result = _run_lazy([[TxInstance(0, ops)],
                                [Gap(1)], [Gap(1)], [Gap(1)]])
    assert system.global_value(0) == 2  # two buffered increments


def test_no_false_aborting_by_construction():
    wl = make_synthetic_workload(num_nodes=4, instances=10,
                                 shared_lines=4, tx_reads=4, tx_writes=2,
                                 seed=7)
    cfg = small_config(4)
    system = System(cfg, wl, "baseline", node_cls=LazyNodeController)
    result = system.run(max_cycles=10_000_000)
    assert result.stats.tx_committed == wl.total_instances()
    assert result.stats.tx_getx_false_aborting == 0
    assert result.stats.tx_getx_nacked == 0  # nobody nacks a committer


def test_committer_wins_aborts_even_older_readers():
    progs = [
        # old reader of 0, still running when the young writer commits
        [TxInstance(0, read_ops([0], 1, 0) + [TxOp(False, 100, 3000, 1)])],
        [Gap(300), TxInstance(0, write_ops([0], 1, 2))],
        [Gap(1)], [Gap(1)],
    ]
    system, result = _run_lazy(progs)
    assert result.stats.tx_committed == 2
    # the OLDER reader lost: committer-wins
    assert result.stats.nodes[0].tx_aborted >= 1
    assert system.global_value(0) == 1


def test_commits_serialized_through_token():
    wl = make_synthetic_workload(num_nodes=4, instances=6,
                                 shared_lines=4, tx_reads=3, tx_writes=2,
                                 seed=9)
    cfg = small_config(4)
    system = System(cfg, wl, "baseline", node_cls=LazyNodeController)
    system.run(max_cycles=10_000_000)
    token = system.nodes[0].commit_token
    assert all(n.commit_token is token for n in system.nodes)
    assert token.holder is None  # fully released at the end
    assert token.grants >= system.stats.tx_committed - \
        sum(1 for n in system.nodes)  # read-only commits skip the token


def test_lazy_atomicity_audit_under_contention():
    for seed in (1, 2, 3):
        wl = make_synthetic_workload(num_nodes=4, instances=8,
                                     shared_lines=3, tx_reads=3,
                                     tx_writes=2, seed=seed)
        cfg = small_config(4, seed=seed)
        system = System(cfg, wl, "baseline",
                        node_cls=LazyNodeController)
        result = system.run(max_cycles=10_000_000)  # audits inside
        assert result.stats.tx_committed == wl.total_instances()


def test_lazy_rmw_workload():
    progs = [[TxInstance(0, rmw_ops([0], 1, 0), i) for i in range(4)]
             for _ in range(4)]
    system, result = _run_lazy(progs)
    assert result.stats.tx_committed == 16
    assert system.global_value(0) == 16  # all increments serialized


def test_lazy_beats_eager_on_false_abort_heavy_load():
    """Where eager HTM burns work on false aborting, lazy detection
    (which cannot false-abort) discards less."""
    wl = make_synthetic_workload(num_nodes=4, instances=10,
                                 shared_lines=4, tx_reads=4, tx_writes=1,
                                 seed=11)
    cfg = small_config(4)
    eager = System(cfg, wl, "baseline").run(max_cycles=10_000_000)
    lazy = System(cfg, wl, "baseline",
                  node_cls=LazyNodeController).run(max_cycles=10_000_000)
    assert lazy.stats.tx_getx_false_aborting == 0
    assert eager.stats.tx_committed == lazy.stats.tx_committed
