"""Dynamic protocol sanitizer: clean runs check without firing, and a
seeded corruption of each invariant is caught with the right rule id."""

import pytest

from repro.coherence.states import DirState, L1State
from repro.htm.conflict import Decision
from repro.htm.transaction import Transaction
from repro.network.message import Message, MessageType, TxTag
from repro.sanitize import ENV_FLAG, sanitize_enabled
from repro.sanitize.violations import INVARIANTS, SanitizerViolation
from repro.sim.config import small_config
from repro.system import System
from repro.workloads.synthetic import make_synthetic_workload


def _make_system(cm="puno", sanitize=True, num_nodes=4, **wl_kw):
    cfg = small_config(num_nodes)
    wl_kw.setdefault("instances", 6)
    wl_kw.setdefault("shared_lines", 8)
    wl = make_synthetic_workload(num_nodes=num_nodes, **wl_kw)
    return System(cfg, wl, cm, sanitize=sanitize)


# ---------------------------------------------------------------------
# clean runs
# ---------------------------------------------------------------------

@pytest.mark.parametrize("cm", ["baseline", "puno"])
def test_clean_run_passes_and_counts_checks(cm):
    system = _make_system(cm=cm)
    result = system.run(max_cycles=5_000_000)
    assert result.stats.tx_committed > 0
    assert result.stats.sanitizer_checks > 0
    assert result.extras["sanitizer_checks"] == float(
        result.stats.sanitizer_checks)


def test_sanitize_off_by_default(monkeypatch):
    monkeypatch.delenv(ENV_FLAG, raising=False)
    assert not sanitize_enabled()
    system = _make_system(sanitize=None)
    assert system.sanitizer is None
    assert system.network.san is None
    assert all(d.san is None for d in system.directories)
    assert all(n.san is None for n in system.nodes)
    result = system.run(max_cycles=5_000_000)
    assert result.stats.sanitizer_checks == 0
    assert "sanitizer_checks" not in result.extras


def test_env_flag_enables(monkeypatch):
    monkeypatch.setenv(ENV_FLAG, "1")
    assert sanitize_enabled()
    system = _make_system(sanitize=None)
    assert system.sanitizer is not None
    # explicit argument wins over the environment
    monkeypatch.setenv(ENV_FLAG, "0")
    assert not sanitize_enabled()
    assert _make_system(sanitize=True).sanitizer is not None


def test_every_invariant_has_id_and_description():
    assert len(INVARIANTS) >= 6
    for rule, desc in INVARIANTS.items():
        assert rule and desc


def test_violation_formatting():
    v = SanitizerViolation("mesi-single-owner", "boom", cycle=7, node=2,
                           addr=40)
    assert v.rule == "mesi-single-owner"
    text = str(v)
    assert "boom" in text and "cycle 7" in text
    assert "node 2" in text and "addr 40" in text


# ---------------------------------------------------------------------
# seeded corruptions, one per invariant
# ---------------------------------------------------------------------

def _ran_system(**kw):
    """A sanitized system that already ran cleanly — its final state is
    a valid protocol state we can then corrupt."""
    system = _make_system(**kw)
    system.run(max_cycles=5_000_000)
    return system


def _shared_entry(system):
    """Some (addr, entry) left in stable Shared state."""
    for directory in system.directories:
        for addr, entry in directory.entries.items():
            if entry.state is DirState.S and not entry.blocked:
                holders = [n for n in system.nodes
                           if n.l1.state_of(addr) is L1State.S]
                if holders:
                    return addr, entry
    raise AssertionError("no stable shared line in final state")


def _expect(rule, fn, *args, **kw):
    with pytest.raises(SanitizerViolation) as exc:
        fn(*args, **kw)
    assert exc.value.rule == rule
    return exc.value


def test_second_owner_caught():
    system = _ran_system()
    addr, entry = _shared_entry(system)
    # two nodes claim write permission for the same line
    system.nodes[0].l1.install(addr, L1State.M, 0)
    system.nodes[1].l1.install(addr, L1State.M, 0)
    _expect("mesi-single-owner", system.sanitizer.check_line,
            addr, entry)


def test_owner_with_sharers_caught():
    system = _ran_system()
    addr, entry = _shared_entry(system)
    holder = next(n for n in system.nodes
                  if n.l1.state_of(addr) is L1State.S)
    holder.l1.install(addr, L1State.M, 0)  # silent S->M upgrade
    _expect("mesi-single-owner", system.sanitizer.check_line,
            addr, entry)


def test_sharer_list_hole_caught():
    system = _ran_system()
    addr, entry = _shared_entry(system)
    holder = next(n.node for n in system.nodes
                  if n.l1.state_of(addr) is L1State.S)
    entry.sharers &= ~(1 << holder)  # directory forgets a live sharer
    _expect("dir-sharers", system.sanitizer.check_line,
            addr, entry)


def test_directory_i_with_cached_copy_caught():
    system = _ran_system()
    addr, entry = _shared_entry(system)
    entry.state = DirState.I
    entry.sharers = 0
    _expect("dir-sharers", system.sanitizer.check_line,
            addr, entry)


def _fake_tx(node, timestamp=100, reads=(), writes=()):
    tx = Transaction(node.node, 0, 0, timestamp, 1, 0)
    for a in reads:
        tx.record_read(a)
    for a in writes:
        tx.record_write(a, 0)
    node.tx = tx
    return tx


def _fwd(mtype, addr, dst, ts, **kw):
    return Message(mtype, addr, src=0, dst=dst, requester=0,
                   tx=TxTag(node=0, timestamp=ts), **kw)


def test_abort_without_overlap_caught():
    system = _ran_system()
    node = system.nodes[1]
    _fake_tx(node, timestamp=100, reads=(7,))
    msg = _fwd(MessageType.FWD_GETX, addr=999, dst=1, ts=50)
    _expect("abort-overlap", system.sanitizer.check_conflict_decision,
            node, msg, Decision.ACK_ABORT, "getx")


def test_older_tx_aborted_caught():
    system = _ran_system()
    node = system.nodes[1]
    _fake_tx(node, timestamp=10, reads=(7,))  # older than requester
    msg = _fwd(MessageType.FWD_GETX, addr=7, dst=1, ts=50)
    _expect("abort-overlap", system.sanitizer.check_conflict_decision,
            node, msg, Decision.ACK_ABORT, "getx")


def test_nack_by_younger_caught():
    system = _ran_system()
    node = system.nodes[1]
    _fake_tx(node, timestamp=500, reads=(7,))  # younger than requester
    msg = _fwd(MessageType.FWD_GETX, addr=7, dst=1, ts=50)
    _expect("abort-overlap", system.sanitizer.check_conflict_decision,
            node, msg, Decision.NACK, "getx")


def test_missed_conflict_caught():
    system = _ran_system()
    node = system.nodes[1]
    _fake_tx(node, timestamp=10, reads=(7,))  # older -> must defend
    msg = _fwd(MessageType.FWD_GETX, addr=7, dst=1, ts=50)
    _expect("abort-overlap", system.sanitizer.check_conflict_decision,
            node, msg, Decision.ACK, "getx")


def test_unicast_nack_without_conflict_caught():
    system = _ran_system()
    node = system.nodes[1]
    _fake_tx(node, timestamp=500, reads=())
    node._prev_footprint = frozenset()
    msg = _fwd(MessageType.FWD_GETX, addr=7, dst=1, ts=50, u_bit=True)
    _expect("abort-overlap", system.sanitizer.check_unicast_probe,
            node, msg, False)


def test_mp_bit_on_real_conflict_caught():
    system = _ran_system()
    node = system.nodes[1]
    _fake_tx(node, timestamp=10, reads=(7,))  # genuine winning conflict
    msg = _fwd(MessageType.FWD_GETX, addr=7, dst=1, ts=50, u_bit=True)
    _expect("abort-overlap", system.sanitizer.check_unicast_probe,
            node, msg, True)


def test_granted_unicast_caught():
    system = _ran_system()
    node = system.nodes[1]
    msg = Message(MessageType.DATA_EXCL, 7, src=0, dst=1, u_bit=True)
    _expect("ubit-ack", system.sanitizer.check_ubit_response, node, msg)


def test_surviving_pbuffer_entry_after_feedback_caught():
    system = _ran_system(cm="puno")
    puno = next(p for p in system.punos if p is not None)
    pb = puno.pbuffer
    pb._priority[2] = 123  # entry that feedback failed to clear
    pb._expiry[2] = pb.decays + 1  # validity 1
    assert pb.validity(2) == 1
    _expect("mp-feedback", system.sanitizer.check_mp_feedback, puno, 2)


def test_validity_counter_overflow_caught():
    system = _ran_system(cm="puno")
    pb = next(p for p in system.punos if p is not None).pbuffer
    pb._priority[0] = 5
    pb._expiry[0] = pb.decays + pb.config.validity_max + 3
    assert pb.validity(0) == pb.config.validity_max + 3
    _expect("pbuffer-validity", system.sanitizer.check_pbuffer, pb)


def test_validity_without_priority_caught():
    system = _ran_system(cm="puno")
    pb = next(p for p in system.punos if p is not None).pbuffer
    pb._priority[0] = None
    pb._expiry[0] = pb.decays + 2  # validity 2
    assert pb.validity(0) == 2
    _expect("pbuffer-validity", system.sanitizer.check_pbuffer, pb)


def test_nonpositive_txlb_length_caught():
    system = _ran_system()
    node = system.nodes[0]
    node.txlb._hw[3] = 0
    _expect("txlb-estimate", system.sanitizer.check_txlb, node, node.txlb)


def test_bad_estimate_caught():
    system = _ran_system()
    _expect("txlb-estimate", system.sanitizer.check_estimate,
            system.nodes[0], -3)


def test_illegal_message_field_caught():
    system = _ran_system()
    msg = Message(MessageType.DATA, 7, src=0, dst=1, sticky=True)
    _expect("message-fields", system.sanitizer.check_message, msg)
    msg = Message(MessageType.UNBLOCK, 7, src=0, dst=1, mp_bit=True)
    _expect("message-fields", system.sanitizer.check_message, msg)


def test_undo_log_divergence_caught():
    system = _ran_system(cm="baseline")
    node = system.nodes[0]
    tx = _fake_tx(node, writes=(3,))
    tx.undo_log[99] = 0  # logged a line that was never written
    _expect("undo-log", system.sanitizer.check_undo_log, node, tx)


def test_write_without_read_permission_caught():
    system = _ran_system(cm="baseline")
    node = system.nodes[0]
    tx = _fake_tx(node, writes=(3,))
    tx.read_set.discard(3)
    _expect("undo-log", system.sanitizer.check_undo_log, node, tx)


# ---------------------------------------------------------------------
# a corruption injected mid-run is caught by the settled-line check
# ---------------------------------------------------------------------

def test_midrun_corruption_aborts_the_run():
    system = _make_system(cm="baseline")

    def corrupt():
        # grab any directory entry with a settled line and force a
        # phantom second exclusive copy behind the protocol's back
        for directory in system.directories:
            for addr, entry in directory.entries.items():
                if entry.blocked:
                    continue
                system.nodes[0].l1.install(addr, L1State.M, 0)
                system.nodes[1].l1.install(addr, L1State.M, 0)
                system.sanitizer.check_settled_line(directory, addr)
                return
        system.sim.schedule(500, corrupt)  # nothing settled yet

    system.sim.schedule(2_000, corrupt)
    with pytest.raises(SanitizerViolation) as exc:
        system.run(max_cycles=5_000_000)
    assert exc.value.rule == "mesi-single-owner"
    assert exc.value.cycle >= 2_000
