"""Scheme plug-in registry and policy-axis units.

The plug-in decomposition must be *behaviour-preserving* for the
re-registered built-ins (the golden suite proves bit-identity; here we
prove the structural claims: same CM classes, same RNG streams, same
node classes) and *complete* for the new contenders (arbiter ordering,
adaptive-requeue bounds, PUNO hardware chosen by the scheme alone,
System wiring).
"""

from collections import deque

import pytest

from repro.htm.contention import (
    ATSScheduler,
    FixedBackoff,
    PUNOBackoff,
    RandomBackoff,
    RMWPredictor,
)
from repro.network.message import Message, MessageType, TxTag
from repro.schemes import (
    AdaptiveRequeue,
    PhasePriorityArbiter,
    Scheme,
    get_scheme,
    list_schemes,
    register_scheme,
    scheme_names,
    unregister_scheme,
)
from repro.schemes.registry import cm_fixed
from repro.scenarios import ScenarioSpec, WorkloadDef
from repro.sim.config import SystemConfig, small_config
from repro.sim.rng import RngFactory
from repro.sim.stats import Stats
from repro.system import System, run_workload
from repro.workloads.base import Gap, Workload
from repro.workloads.stamp import make_stamp_workload

BUILTINS = {"baseline", "backoff", "rmw", "puno", "ats", "ats+puno",
            "lazy", "phase-priority", "adaptive-requeue"}


# ---------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------

def test_builtins_registered():
    assert BUILTINS <= set(scheme_names())


def test_get_scheme_unknown_lists_choices():
    with pytest.raises(KeyError, match="baseline"):
        get_scheme("definitely-not-a-scheme")


def test_register_rejects_redefinition():
    with pytest.raises(ValueError, match="already registered"):
        register_scheme(Scheme(name="baseline", description="dup",
                               cm_factory=cm_fixed))


def _spec(*schemes):
    return ScenarioSpec(name="schemes", nodes=4,
                        workloads=(WorkloadDef("kmeans"),), schemes=schemes)


def _puno_units(scheme):
    """Whether a 4-node System under ``scheme`` builds the PUNO
    hardware: a P-Buffer unit at every directory, and NACK
    notification at every node."""
    wl = Workload("idle", [[Gap(1)] for _ in range(4)])
    system = System(small_config(4), wl, scheme)
    built = {p is not None for p in system.punos}
    notify = {n._notify for n in system.nodes}
    assert len(built) == len(notify) == 1, scheme
    assert built == notify, scheme
    return built.pop()


def test_register_and_unregister_custom_scheme():
    scheme = register_scheme(Scheme(
        name="test-custom", description="fixture", cm_factory=cm_fixed,
        needs_puno=True))
    spec = _spec("test-custom")
    try:
        assert get_scheme("test-custom") is scheme
        # scenario validation tracks registrations, and the scheme
        # alone builds the PUNO units
        assert spec.validate() == []
        assert _puno_units("test-custom")
    finally:
        unregister_scheme("test-custom")
    assert "test-custom" not in scheme_names()
    assert any("unknown scheme 'test-custom'" in p for p in spec.validate())


def test_scheme_validation_rejects_inconsistent_axes():
    """Each axis is stated once: the version must name a known
    versioning, and the forward policy is the arbiter factory alone
    (None is the FIFO drain)."""
    with pytest.raises(ValueError, match="version"):
        Scheme(name="x", description="", cm_factory=cm_fixed,
               version="optimistic")
    fifo = Scheme(name="x", description="", cm_factory=cm_fixed)
    assert fifo.make_arbiter(SystemConfig()) is None
    reordering = Scheme(name="x", description="", cm_factory=cm_fixed,
                        arbiter_factory=PhasePriorityArbiter)
    assert isinstance(reordering.make_arbiter(SystemConfig()),
                      PhasePriorityArbiter)


def test_every_scheme_documents_itself():
    for scheme in list_schemes():
        assert scheme.description, f"{scheme.name} has no description"
        assert scheme.citation, f"{scheme.name} has no citation"


# ---------------------------------------------------------------------
# built-ins reproduce the pre-plug-in construction
# ---------------------------------------------------------------------

def test_builtin_cm_classes_match_legacy_registry():
    cfg = SystemConfig()
    stats = Stats(cfg.num_nodes)
    expected = {
        "baseline": FixedBackoff,
        "backoff": RandomBackoff,
        "rmw": RMWPredictor,
        "puno": PUNOBackoff,
        "ats": ATSScheduler,
        "ats+puno": ATSScheduler,
        "lazy": FixedBackoff,
        "phase-priority": FixedBackoff,
        "adaptive-requeue": AdaptiveRequeue,
    }
    for name, cls in expected.items():
        cm = get_scheme(name).make_cm(cfg, stats, avg_c2c=10)
        assert type(cm) is cls, name


def test_ats_puno_composition_shares_one_stream():
    cfg = SystemConfig(seed=3)
    cm = get_scheme("ats+puno").make_cm(cfg, Stats(cfg.num_nodes),
                                        avg_c2c=12)
    assert isinstance(cm.inner, PUNOBackoff)
    assert cm.rng is cm.inner.rng  # one shared stream, as before


def test_cm_rng_stream_is_seed_and_name_keyed():
    """The stream must be RngFactory(seed).stream('cm:<name>') — the
    exact naming the golden digests were pinned under."""
    cfg = SystemConfig(seed=7)
    cm = get_scheme("backoff").make_cm(cfg, Stats(cfg.num_nodes))
    reference = RngFactory(7).stream("cm:backoff")
    assert [cm.rng.randint(0, 10**9) for _ in range(8)] == \
           [reference.randint(0, 10**9) for _ in range(8)]


def test_needs_puno_flags():
    """Only the PUNO schemes' cells run with the PUNO units on."""
    for name in BUILTINS:
        assert get_scheme(name).needs_puno == \
            (name in {"puno", "ats+puno"}), name
        assert _puno_units(name) == get_scheme(name).needs_puno, name


# The scheme name alone chooses the design: at bayes scale 1.0 under
# the Table II config, "puno" runs the P-Buffers and notification, and
# "baseline" runs neither.
BAYES_DIGESTS = {
    "puno": "6bad03a0e685a84199c752d336a62a19"
            "daf4c20ba04aad0c975a8a5b3f0c9089",
    "baseline": "cb84c68e6737373571c5ebce95538a8e"
                "ada87f2f5b6164bd615b1f8028edf3bc",
}


def test_scheme_name_alone_selects_the_puno_hardware():
    wl = make_stamp_workload("bayes", scale=1.0)
    for scheme, digest in BAYES_DIGESTS.items():
        stats = run_workload(SystemConfig(), wl, scheme).stats
        assert stats.snapshot_digest() == digest, scheme
        assert (stats.puno_unicasts > 0) == (scheme == "puno"), scheme


def test_puno_has_no_enable_field():
    """PUNO hardware is not a config switch: an override that tries to
    turn it on is an unknown field, reported by validation."""
    spec = ScenarioSpec(name="enable", nodes=4,
                        workloads=(WorkloadDef("kmeans"),),
                        schemes=("baseline",),
                        overrides={"puno": {"enabled": True}})
    problems = spec.validate()
    assert len(problems) == 1
    assert "unknown puno config field(s) ['enabled']" in problems[0]


def test_lazy_scheme_resolves_lazy_node_cls():
    from repro.htm.lazy import LazyNodeController
    assert get_scheme("lazy").resolve_node_cls() is LazyNodeController
    assert get_scheme("baseline").resolve_node_cls() is None


# ---------------------------------------------------------------------
# System integration
# ---------------------------------------------------------------------

def _small_system(scheme, **kwargs):
    cfg = SystemConfig(seed=1)
    wl = make_stamp_workload("intruder", num_nodes=16, scale=0.05,
                             seed=0)
    return System(cfg, wl, scheme, **kwargs)


def test_system_resolves_lazy_nodes_from_scheme():
    from repro.htm.lazy import LazyNodeController
    system = _small_system("lazy")
    assert all(isinstance(n, LazyNodeController) for n in system.nodes)
    # all lazy nodes share one commit token
    tokens = {id(n.commit_token) for n in system.nodes}
    assert len(tokens) == 1
    system.run(max_cycles=50_000_000)


def test_explicit_node_cls_overrides_scheme_axis():
    from repro.htm.node import NodeController
    system = _small_system("baseline", node_cls=NodeController)
    assert system.scheme.name == "baseline"
    assert type(system.nodes[0]) is NodeController


def test_system_wires_arbiter_into_every_directory():
    system = _small_system("phase-priority")
    assert isinstance(system.dir_arbiter, PhasePriorityArbiter)
    assert all(d.arbiter is system.dir_arbiter
               for d in system.directories)
    fifo = _small_system("baseline")
    assert fifo.dir_arbiter is None
    assert all(d.arbiter is None for d in fifo.directories)


def test_phase_priority_arbitration_is_exercised():
    """The tournament envelope must actually reorder queues, or the
    scheme's pinned digests would be indistinguishable from FIFO."""
    system = _small_system("phase-priority")
    system.run(max_cycles=50_000_000)
    assert system.dir_arbiter.selections > 0
    assert system.dir_arbiter.reordered > 0


def test_unknown_scheme_raises_at_system_construction():
    with pytest.raises(KeyError, match="choices"):
        _small_system("no-such-scheme")


# ---------------------------------------------------------------------
# phase-priority arbiter ordering
# ---------------------------------------------------------------------

def _msg(committing=False, tx=None):
    return Message(MessageType.GETX, addr=0x40, src=1, dst=0,
                   requester=1, tx=tx, committing=committing)


def _drain(arbiter, items):
    q = deque(items)
    out = []
    while q:
        out.append(arbiter.select(q, now=100))
    return out


def test_arbiter_phase_classes():
    commit = (_msg(committing=True), 30)
    old_tx = (_msg(tx=TxTag(node=2, timestamp=5)), 10)
    young_tx = (_msg(tx=TxTag(node=3, timestamp=50)), 0)
    non_tx = (_msg(), 0)
    arb = PhasePriorityArbiter(SystemConfig())
    order = _drain(arb, [non_tx, young_tx, old_tx, commit])
    assert order == [commit, old_tx, young_tx, non_tx]
    assert arb.reordered > 0


def test_arbiter_fifo_within_class():
    a = (_msg(tx=TxTag(node=1, timestamp=9)), 10)
    b = (_msg(tx=TxTag(node=2, timestamp=9)), 20)  # same ts: node tiebreak
    c = (_msg(), 5)
    d = (_msg(), 6)
    arb = PhasePriorityArbiter(SystemConfig())
    assert _drain(arb, [c, d, a, b]) == [a, b, c, d]


def test_arbiter_single_waiter_fast_path():
    arb = PhasePriorityArbiter(SystemConfig())
    item = (_msg(), 0)
    q = deque([item])
    assert arb.select(q, now=10) is item
    assert not q
    assert arb.selections == 0  # fast path is not counted as a choice


# ---------------------------------------------------------------------
# adaptive-requeue policy
# ---------------------------------------------------------------------

def _requeue_cm(seed=0, **htm_overrides):
    from dataclasses import replace
    cfg = SystemConfig(seed=seed)
    if htm_overrides:
        cfg = replace(cfg, htm=replace(cfg.htm, **htm_overrides))
    return get_scheme("adaptive-requeue").make_cm(
        cfg, Stats(cfg.num_nodes))


def test_adaptive_requeue_intensity_tracks_outcomes():
    cm = _requeue_cm()
    assert cm.intensity(0) == 0
    cm.on_abort(0)
    first = cm.intensity(0)
    assert first > 0
    cm.on_abort(0)
    assert cm.intensity(0) > first
    for _ in range(20):
        cm.on_commit(0)
    assert cm.intensity(0) == 0
    assert cm.intensity(1) == 0  # per-node isolation


def test_adaptive_requeue_window_grows_and_clamps():
    cm = _requeue_cm()
    w1 = cm.requeue_window(0, 1)
    w4 = cm.requeue_window(0, 4)
    assert w1 == cm.slot
    assert w4 == cm.slot << 3
    # intensity scales the window by [1x, 2x)
    cm.on_abort(0)
    cm.on_abort(0)
    assert cm.requeue_window(0, 1) > w1
    # the cap bounds exponential growth, requeue_max clamps the rest
    assert cm.requeue_window(0, 10**6) <= cm.max_window


def test_adaptive_requeue_nack_jitter_only_for_transactions():
    cm = _requeue_cm()
    base = cm.config.htm.nack_backoff
    assert cm.nack_backoff(0, 1, -1, is_tx=False) == base
    for _ in range(50):
        d = cm.nack_backoff(0, 1, -1, is_tx=True)
        assert base <= d <= base + cm.slot - 1
    assert cm.nack_jitters == 50


def test_adaptive_requeue_counts_requeues():
    cm = _requeue_cm()
    for k in range(10):
        delay = cm.restart_backoff(0, k)
        assert 0 <= delay <= cm.max_window
    assert cm.requeues == 10
