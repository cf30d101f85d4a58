"""Deterministic fault injection: zero-rate transparency (the
bit-identity property), same-seed determinism, structured stalls under
loss, and the spec parsing surface."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.chaos import ChaosOutcome
from repro.analysis.parallel import run_task
from repro.faults import (
    DUP_SAFE_TYPES,
    RESPONSE_TYPES,
    FaultConfig,
    FaultInjector,
    audits_safe,
    parse_fault_spec,
)
from repro.network.message import MessageType
from repro.sanitize import ENV_FLAG as SANITIZE_FLAG
from repro.sanitize.violations import SanitizerViolation
from repro.scenarios.runner import scenario_tasks
from repro.scenarios.spec import ScenarioSpec, WorkloadDef
from repro.sim.config import small_config
from repro.sim.watchdog import StallError, WatchdogConfig
from repro.system import System
from repro.workloads.synthetic import make_synthetic_workload


def _workload(seed=3, instances=6):
    return make_synthetic_workload(num_nodes=4, instances=instances,
                                   shared_lines=8, tx_reads=4,
                                   tx_writes=2, seed=seed)


def _sha(system):
    """The determinism currency: a digest over the full Stats snapshot."""
    payload = json.dumps(system.stats.snapshot(), sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def _run(faults=None, watchdog=None, force=False, audit=True):
    system = System(small_config(4), _workload(), "baseline",
                    faults=faults, watchdog=watchdog)
    if force:
        inj = FaultInjector(FaultConfig(), 4)
        inj.attach(system, force=True)
    system.run(max_cycles=10_000_000, audit=audit)
    return system


# ---------------------------------------------------------------------
# zero-rate bit-identity (the tentpole property)
# ---------------------------------------------------------------------

def test_zero_rate_injector_plus_watchdog_is_bit_identical():
    """An inactive FaultConfig with the watchdog armed must leave the
    run statistics byte-for-byte identical to a plain run."""
    plain = _run()
    guarded = _run(faults=FaultConfig(), watchdog=True)
    assert _sha(plain) == _sha(guarded)


def test_force_installed_wrapper_is_transparent():
    """Even with the send wrapper force-installed (so every message
    passes through the injector's code path), a zero-rate config must
    not perturb the run."""
    plain = _run()
    wrapped = _run(force=True)
    assert _sha(plain) == _sha(wrapped)


def test_zero_rate_config_does_not_install_wrapper():
    system = System(small_config(4), _workload(), "baseline",
                    faults=FaultConfig(), watchdog=True)
    assert system.fault_injector is not None
    # inactive config: Network.send is untouched
    assert system.network.send != system.fault_injector.send


# ---------------------------------------------------------------------
# seeded determinism
# ---------------------------------------------------------------------

def test_same_seed_faulted_runs_are_identical():
    faults = FaultConfig(duplicate=0.05, delay=0.1, seed=5)
    a = _run(faults=faults, watchdog=True)
    b = _run(faults=faults, watchdog=True)
    assert _sha(a) == _sha(b)
    assert a.fault_injector.summary() == b.fault_injector.summary()
    assert a.fault_injector.total_injected > 0


def test_fault_seed_changes_decisions():
    a = _run(faults=FaultConfig(delay=0.3, seed=5), watchdog=True)
    b = _run(faults=FaultConfig(delay=0.3, seed=6), watchdog=True)
    assert (a.fault_injector.summary() != b.fault_injector.summary()
            or _sha(a) != _sha(b))


# ---------------------------------------------------------------------
# loss-free mixes complete with the audits on
# ---------------------------------------------------------------------

def test_duplicate_and_delay_complete_with_audits():
    faults = FaultConfig(duplicate=0.05, delay=0.1, seed=2)
    assert audits_safe(faults)
    system = _run(faults=faults, watchdog=True, audit=True)
    inj = system.fault_injector
    assert inj.duplicated > 0 and inj.delayed > 0
    assert system.stats.tx_committed > 0


def test_node_stalls_complete_with_audits():
    faults = FaultConfig(stall_interval=2_000, stall_duration=200, seed=3)
    assert faults.active() and audits_safe(faults)
    system = _run(faults=faults, watchdog=True, audit=True)
    assert system.fault_injector.stalls_injected > 0


def test_delay_and_stalls_run_on_a_mesh_without_route_tables():
    """Past ROUTE_TABLE_MAX_NODES the mesh has no latency table; the
    injector's FIFO clamp and stall penalty read its latency anyway."""
    from repro.sim.config import scaled_config
    from repro.workloads.families import make_hotspot_workload
    faults = FaultConfig(delay=0.05, stall_interval=2_000,
                         stall_duration=200, seed=7)
    system = System(scaled_config(256, seed=1),
                    make_hotspot_workload(num_nodes=256, scale=0.05, seed=0),
                    "baseline", faults=faults, watchdog=True)
    assert not system.mesh.has_tables
    system.run(max_cycles=10_000_000, audit=True)
    inj = system.fault_injector
    assert inj.delayed > 0 and inj.stalls_injected > 0
    assert system.stats.tx_committed > 0


# ---------------------------------------------------------------------
# loss wedges the run into a structured stall
# ---------------------------------------------------------------------

def test_drop_raises_structured_stall():
    faults = FaultConfig(drop=0.3, seed=1)
    assert not audits_safe(faults)
    wcfg = WatchdogConfig(check_interval=2_000, progress_window=50_000,
                          livelock_nack_floor=16)
    with pytest.raises(StallError) as exc_info:
        _run(faults=faults, watchdog=wcfg, audit=False)
    report = exc_info.value.report
    assert report.kind in ("deadlock", "livelock", "no-progress")
    assert report.faults["dropped"] > 0
    assert report.nodes_done < report.num_nodes
    assert "stall detected" in report.describe()


# ---------------------------------------------------------------------
# type clamps: what may be duplicated / reordered
# ---------------------------------------------------------------------

def test_dup_safe_types_exclude_counting_messages():
    assert MessageType.ACK not in DUP_SAFE_TYPES
    assert MessageType.NACK not in DUP_SAFE_TYPES
    assert MessageType.DATA in DUP_SAFE_TYPES
    assert DUP_SAFE_TYPES < RESPONSE_TYPES


def test_rate_table_clamps_requests_and_counting_responses():
    inj = FaultInjector(FaultConfig(duplicate=0.5, reorder=0.5), 4)
    # requests are never duplicated or reordered
    drop, dup, delay, reorder = inj._rates[MessageType.GETS]
    assert dup == 0.0 and reorder == 0.0
    # ACK may be reordered (counting is order-insensitive) but never
    # duplicated (a copy inflates the multicast completion tally)
    drop, dup, delay, reorder = inj._rates[MessageType.ACK]
    assert dup == 0.0 and reorder == 0.5
    drop, dup, delay, reorder = inj._rates[MessageType.DATA]
    assert dup == 0.5 and reorder == 0.5


def test_per_type_override_is_honored_verbatim():
    inj = FaultInjector(
        FaultConfig(per_type=(("ACK", "duplicate", 0.25),)), 4)
    assert inj._rates[MessageType.ACK][1] == 0.25


def test_double_attach_rejected():
    system = System(small_config(4), _workload(), "baseline")
    inj = FaultInjector(FaultConfig(), 4)
    inj.attach(system)
    with pytest.raises(RuntimeError, match="already attached"):
        inj.attach(system)


# ---------------------------------------------------------------------
# config validation and the --faults spec parser
# ---------------------------------------------------------------------

def test_active_detection():
    assert not FaultConfig().active()
    assert FaultConfig(drop=0.01).active()
    assert FaultConfig(per_type=(("DATA", "delay", 0.1),)).active()
    assert not FaultConfig(per_type=(("DATA", "delay", 0.0),)).active()
    assert FaultConfig(per_pair=((0, 1, "drop", 0.2),)).active()
    assert FaultConfig(stall_interval=100, stall_duration=10).active()
    assert not FaultConfig(stall_interval=100).active()  # zero duration


def test_validate_rejects_bad_entries():
    with pytest.raises(ValueError, match="unknown message type"):
        FaultConfig(per_type=(("NOPE", "drop", 0.1),)).validate()
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultConfig(per_type=(("DATA", "mangle", 0.1),)).validate()
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultConfig(per_pair=((0, 1, "mangle", 0.1),)).validate()
    with pytest.raises(ValueError, match="outside"):
        FaultConfig(drop=1.5).validate()
    with pytest.raises(ValueError, match="outside"):
        FaultConfig(drop=2.0).validate()


def test_parse_fault_spec_aliases_and_ints():
    cfg = parse_fault_spec("drop=0.01,dup=0.005,seed=7,delay_max=32")
    assert cfg.drop == 0.01
    assert cfg.duplicate == 0.005  # "dup" alias
    assert cfg.seed == 7 and isinstance(cfg.seed, int)
    assert cfg.delay_max == 32 and isinstance(cfg.delay_max, int)


def test_parse_fault_spec_stalls_and_whitespace():
    cfg = parse_fault_spec(" stall_interval=100 , stall_duration=10 ")
    assert cfg.stall_interval == 100 and cfg.stall_duration == 10


def test_parse_fault_spec_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown fault spec key"):
        parse_fault_spec("bogus=0.1")
    with pytest.raises(ValueError, match="key=value"):
        parse_fault_spec("drop")
    with pytest.raises(ValueError, match="outside"):
        parse_fault_spec("drop=1.5")


# ---------------------------------------------------------------------
# audit gating
# ---------------------------------------------------------------------

def test_audits_safe_classification():
    assert audits_safe(None)
    assert audits_safe(FaultConfig())
    assert audits_safe(FaultConfig(duplicate=0.1, delay=0.2))
    assert audits_safe(FaultConfig(stall_interval=100, stall_duration=10))
    assert not audits_safe(FaultConfig(drop=0.01))
    assert not audits_safe(FaultConfig(reorder=0.01))
    assert not audits_safe(FaultConfig(per_type=(("DATA", "drop", 0.1),)))
    assert not audits_safe(FaultConfig(per_pair=((0, 1, "reorder", 0.1),)))
    # zero-rate overrides don't disqualify
    assert audits_safe(FaultConfig(per_type=(("DATA", "drop", 0.0),)))


# ---------------------------------------------------------------------
# delay + reorder: a sanitized cell loses a sharer (ROADMAP item 2)
# ---------------------------------------------------------------------

@pytest.mark.xfail(strict=True, raises=SanitizerViolation,
                   reason="dir-sharers at cycle 19662, addr 52: an S "
                          "holder drops out of the sharer list under "
                          "delay+reorder")
def test_delay_reorder_labyrinth_cell_raises_no_violation(monkeypatch):
    """The 16-node labyrinth/baseline chaos cell at scale 0.1 under
    ``delay=0.05,reorder=0.02,seed=7``, sanitized, must commit or
    stall in a way the faults explain, and raise no violation."""
    spec = ScenarioSpec(name="chaos", nodes=16,
                        workloads=(WorkloadDef("labyrinth"),),
                        schemes=("baseline",), scale=0.1,
                        faults="delay=0.05,reorder=0.02,seed=7")
    task, = scenario_tasks(spec, max_cycles=500_000_000)
    monkeypatch.setenv(SANITIZE_FLAG, "1")
    assert ChaosOutcome(run_task(task)).ok
