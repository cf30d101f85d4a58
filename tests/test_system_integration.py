"""System-level integration tests: whole-protocol flows with audits."""

import pytest

from repro.coherence.states import DirState, L1State
from repro.core.bitset import mask_of
from repro.sim.config import small_config
from repro.system import System, run_workload
from repro.workloads.base import Gap, NonTxOp, TxInstance, TxOp, Workload
from repro.workloads.generator import read_ops, write_ops
from repro.workloads.synthetic import make_synthetic_workload


def _run(programs, cfg=None, cm="baseline", **kw):
    cfg = cfg or small_config(len(programs))
    wl = Workload("t", programs)
    system = System(cfg, wl, cm)
    result = system.run(max_cycles=5_000_000, **kw)
    return system, result


def test_single_reader():
    system, result = _run([[TxInstance(0, read_ops([0, 1, 2], 1, 0))],
                           [Gap(1)], [Gap(1)], [Gap(1)]])
    s = result.stats
    assert s.tx_committed == 1 and s.tx_aborted == 0
    # three cold misses hit memory
    assert s.l2_misses == 3
    assert system.nodes[0].l1.state_of(0) in (L1State.E, L1State.M)


def test_single_writer_value_lands():
    system, result = _run([[TxInstance(0, write_ops([0], 1, 0))],
                           [Gap(1)], [Gap(1)], [Gap(1)]])
    assert system.global_value(0) == 1
    assert system.nodes[0].committed_increments == 1


def test_non_tx_ops_commit_immediately():
    system, result = _run([[NonTxOp(True, 0), NonTxOp(True, 0)],
                           [Gap(1)], [Gap(1)], [Gap(1)]])
    assert system.global_value(0) == 2


def test_read_sharing_two_nodes():
    programs = [[TxInstance(0, read_ops([0], 1, 0))],
                [Gap(40), TxInstance(0, read_ops([0], 1, 0))],
                [Gap(1)], [Gap(1)]]
    system, result = _run(programs)
    assert result.stats.tx_committed == 2
    assert result.stats.tx_aborted == 0  # read-read never conflicts
    entry = system.directories[0].entries[0]
    assert entry.state is DirState.S
    assert entry.sharers & mask_of({0, 1}) == mask_of({0, 1})


def test_write_invalidates_readers():
    programs = [
        [TxInstance(0, read_ops([0], 1, 0)), Gap(2000)],
        # writer arrives after the reader committed
        [Gap(300), TxInstance(0, write_ops([0], 1, 0))],
        [Gap(1)], [Gap(1)],
    ]
    system, result = _run(programs)
    assert result.stats.tx_committed == 2
    assert system.nodes[0].l1.state_of(0) is L1State.I
    assert system.global_value(0) == 1


def test_older_reader_nacks_younger_writer():
    """W-R conflict with an older reader: the writer stalls (no aborts)
    until the reader commits, then succeeds."""
    programs = [
        # long reader: reads 0 then thinks for a long time
        [TxInstance(0, read_ops([0], 1, 0)
                    + [TxOp(False, 100, 800, 1)])],
        [Gap(200), TxInstance(0, write_ops([0], 1, 0))],
        [Gap(1)], [Gap(1)],
    ]
    system, result = _run(programs)
    s = result.stats
    assert s.tx_committed == 2
    assert s.tx_aborted == 0
    assert s.nodes[1].nacks_received > 0
    assert system.global_value(0) == 1


def test_younger_reader_aborted_by_older_writer():
    programs = [
        # reader starts later (younger), writer older wins
        [Gap(300), TxInstance(0, read_ops([0], 1, 0)
                              + [TxOp(False, 100, 500, 1)])],
        [TxInstance(0, [TxOp(False, 200, 400, 2),
                        TxOp(True, 0, 1, 3)])],
        [Gap(1)], [Gap(1)],
    ]
    system, result = _run(programs)
    s = result.stats
    assert s.tx_committed == 2
    assert s.nodes[0].tx_aborted >= 1
    assert s.aborts_by_getx >= 1


def test_write_write_conflict_resolves_by_age():
    programs = [
        [TxInstance(0, [TxOp(True, 0, 1, 0), TxOp(False, 100, 600, 1)])],
        [Gap(100), TxInstance(0, [TxOp(True, 0, 1, 0),
                                  TxOp(False, 200, 600, 1)])],
        [Gap(1)], [Gap(1)],
    ]
    system, result = _run(programs)
    s = result.stats
    assert s.tx_committed == 2
    assert system.global_value(0) == 2  # both increments land


def test_abort_restores_value():
    """A doomed writer's speculative increment must be rolled back."""
    programs = [
        # young writer: writes 0 early, then runs long (gets aborted)
        [Gap(300), TxInstance(0, [TxOp(True, 0, 1, 0),
                                  TxOp(False, 100, 2000, 1)])],
        # old writer: arrives later in wall time but is older? no —
        # make it older by starting first
        [TxInstance(0, [TxOp(False, 200, 800, 2), TxOp(True, 0, 1, 3)])],
        [Gap(1)], [Gap(1)],
    ]
    system, result = _run(programs)
    # final value: both commit eventually (the aborted one retries)
    assert system.global_value(0) == 2
    assert result.stats.tx_aborted >= 1


def test_false_abort_classification():
    """Nacked writer + aborted young reader = one false-aborting GETX."""
    programs = [
        # TxA: old reader of 0, runs long
        [TxInstance(0, read_ops([0], 1, 0) + [TxOp(False, 100, 1500, 1)])],
        # TxB: writer, younger than A, older than C
        [Gap(200), TxInstance(0, [TxOp(False, 200, 150, 2),
                                  TxOp(True, 0, 1, 3)])],
        # TxC: young reader of 0
        [Gap(280), TxInstance(0, read_ops([0], 1, 4)
                              + [TxOp(False, 300, 1200, 5)])],
        [Gap(1)],
    ]
    system, result = _run(programs)
    s = result.stats
    assert s.tx_getx_false_aborting >= 1
    assert s.false_abort_victims.total >= 1
    assert s.false_victims >= 1


def test_eviction_writeback_roundtrip():
    """Fill one set beyond capacity with dirty lines; values survive."""
    cfg = small_config(4)
    nsets = cfg.cache.num_sets
    # 6 addresses in the same set, all written non-transactionally
    addrs = [i * nsets for i in range(6)]
    programs = [[NonTxOp(True, a, think=1) for a in addrs],
                [Gap(1)], [Gap(1)], [Gap(1)]]
    system, result = _run(programs)
    assert result.stats.writebacks >= 2
    total = sum(system.global_value(a) for a in addrs)
    assert total == len(addrs)


def test_read_set_overflow_survives():
    """Read sets larger than one set's associativity still commit: the
    last-resort victim policy sacrifices read-pinned S lines (the
    directory's conservative sharer list keeps them conflict-checked)."""
    cfg = small_config(4)
    nsets = cfg.cache.num_sets
    ways = cfg.cache.ways
    addrs = [i * nsets for i in range(ways + 3)]
    programs = [[TxInstance(0, read_ops(addrs, 1, 0))],
                [Gap(1)], [Gap(1)], [Gap(1)]]
    system, result = _run(programs)
    assert result.stats.tx_committed == 1
    assert result.stats.capacity_aborts == 0


def test_write_set_overflow_raises_clearly():
    """Write sets beyond one set's ways cannot be supported (no sticky-M
    overflow in this model) and must fail loudly, not livelock."""
    cfg = small_config(4)
    nsets = cfg.cache.num_sets
    ways = cfg.cache.ways
    addrs = [i * nsets for i in range(ways + 1)]
    programs = [[TxInstance(0, write_ops(addrs, 1, 0))],
                [Gap(1)], [Gap(1)], [Gap(1)]]
    with pytest.raises(RuntimeError, match="write set exceeds"):
        _run(programs)


def test_audits_pass_on_contended_synthetic():
    wl = make_synthetic_workload(num_nodes=4, instances=10,
                                 shared_lines=8, tx_reads=4, tx_writes=2)
    cfg = small_config(4)
    r = run_workload(cfg, wl, cm="baseline", max_cycles=5_000_000)
    assert r.stats.tx_committed == wl.total_instances()


@pytest.mark.parametrize("cm", ["baseline", "backoff", "rmw", "puno"])
def test_all_cms_complete_and_audit(cm):
    wl = make_synthetic_workload(num_nodes=4, instances=8,
                                 shared_lines=6, tx_reads=4, tx_writes=2)
    r = run_workload(small_config(4), wl, cm=cm, max_cycles=5_000_000)
    assert r.stats.tx_committed == wl.total_instances()
    assert r.cm_name == cm


@pytest.mark.parametrize("fields,needle", [
    (("_ns_tx_committed",), "lost outcome"),
    (("_ns_tx_attempts", "_ns_tx_committed"), "commits for 10 program"),
])
def test_double_counted_commit_fails_the_run(monkeypatch, fields, needle):
    """Seeded bug: node 1 counts its first commit twice (and, in the
    second case, the attempt too, as a replayed instance would).
    Memory stays right, so the coherence audit and the value sum hold,
    but the run's outcome audit must name the node."""
    from repro.htm.node import NodeController
    from repro.system import CoherenceViolation
    real_commit = NodeController._commit
    doubled = []

    def double_counting_commit(self):
        real_commit(self)
        if self.node == 1 and not doubled:
            doubled.append(self.node)
            for field in fields:
                getattr(self, field)[self.node] += 1

    monkeypatch.setattr(NodeController, "_commit", double_counting_commit)
    wl = make_synthetic_workload(num_nodes=4, instances=10,
                                 shared_lines=8, tx_reads=4, tx_writes=2)
    system = System(small_config(4), wl)
    with pytest.raises(CoherenceViolation, match=f"^node 1: .*{needle}"):
        system.run(max_cycles=5_000_000)
    assert doubled == [1]
    system.audit_coherence()


def test_execution_cycles_recorded():
    system, result = _run([[Gap(100)], [Gap(5)], [Gap(5)], [Gap(5)]])
    assert result.stats.execution_cycles >= 100


def test_workload_node_mismatch_rejected():
    wl = Workload("t", [[Gap(1)]])
    with pytest.raises(ValueError):
        System(small_config(4), wl)


def test_unknown_cm_rejected():
    wl = Workload("t", [[Gap(1)] for _ in range(4)])
    with pytest.raises(KeyError):
        System(small_config(4), wl, cm="nope")


def test_missing_endpoint_handler_rejected():
    """The endpoint-completeness check is an explicit raise, so a node
    class with a gap in its dispatch table is refused even under -O."""
    from repro.htm.node import NodeController
    from repro.network.message import MessageType

    class PartialNode(NodeController):
        __slots__ = ()
        HANDLERS = {t: name for t, name in NodeController.HANDLERS.items()
                    if t is not MessageType.FWD_GETX}

    wl = Workload("t", [[Gap(1)] for _ in range(4)])
    with pytest.raises(ValueError, match="no handler for FWD_GETX"):
        System(small_config(4), wl, node_cls=PartialNode)


def test_double_endpoint_registration_rejected(monkeypatch):
    """A MessageType registered by both the directory and the node
    would be silently shadowed by the merge (the node's handler wins),
    so the endpoint check refuses it by name, also under -O."""
    import repro.system as system_mod
    from repro.coherence.directory import DirectoryController
    from repro.network.message import MessageType

    class GreedyDirectory(DirectoryController):
        HANDLERS = {**DirectoryController.HANDLERS,
                    MessageType.PUT_ACK: "_enqueue_or_service"}

    monkeypatch.setattr(system_mod, "DirectoryController", GreedyDirectory)
    wl = Workload("t", [[Gap(1)] for _ in range(4)])
    with pytest.raises(ValueError, match="both handle PUT_ACK"):
        System(small_config(4), wl)


# ---------------------------------------------------------------------
# sanitized end-to-end tours (REPRO_SANITIZE=1)
# ---------------------------------------------------------------------

def test_sanitized_stamp_tour(monkeypatch):
    """Every STAMP analogue completes under the protocol sanitizer with
    zero violations — the whole protocol state machine, PUNO included,
    swept at every event boundary."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.workloads.stamp import STAMP_WORKLOADS, make_stamp_workload
    cfg = small_config(8)
    for name in STAMP_WORKLOADS:
        wl = make_stamp_workload(name, num_nodes=8, scale=0.1)
        r = run_workload(cfg, wl, cm="puno", max_cycles=20_000_000)
        assert r.stats.tx_committed == wl.total_instances(), name
        assert r.stats.sanitizer_checks > 0, name
        assert r.extras["sanitizer_checks"] > 0, name


def test_sanitized_parallel_sweep(monkeypatch):
    """Fork workers inherit REPRO_SANITIZE and the check counter rides
    the pickled Stats back — every grid cell provably ran sanitized
    (and uncached: a cache hit would check nothing)."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.scenarios import ScenarioSpec, WorkloadDef, run_scenario
    spec = ScenarioSpec(name="sanitized-4", nodes=4,
                        workloads=(WorkloadDef("intruder"),),
                        schemes=("baseline", "puno"), scale=0.05,
                        max_cycles=20_000_000)
    result = run_scenario(spec, jobs=2, cache=False)
    for (_, scheme, _), r in zip(result.cells, result.results):
        assert r.stats.sanitizer_checks > 0, scheme
