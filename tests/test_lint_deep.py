"""Seeded mutations of the real tree, and the net that catches each.

Every mutation here was once caught by a whole-program lint pass
(determinism taint, handler exhaustiveness, snapshot contract, pickle
capture).  Each is now caught by a per-file rule run through
``lint_source`` on the mutated module, or by the runtime
endpoint check in ``System._make_endpoint``.  DESIGN.md §6 maps every
mutation to the test below that proves its net still holds.
"""

import sys
import types

import pytest

from repro.lint.runner import lint_source, package_root
from repro.sim.config import small_config
from repro.system import System
from repro.workloads.base import Gap, Workload


def _source(relpath: str) -> str:
    return (package_root() / relpath).read_text()


def _mutate(relpath: str, marker: str, insert: str) -> str:
    """``relpath``'s source with ``insert`` placed after ``marker``."""
    src = _source(relpath)
    assert marker in src, f"{relpath} no longer contains {marker!r}"
    return src.replace(marker, marker + insert, 1)


def _lint(relpath: str, source: str, rule: str):
    """Findings of ``rule`` when ``source`` is linted as ``relpath``."""
    return [v for v in lint_source(source, relpath, relpath)
            if v.rule == rule]


def _load(relpath: str, source: str, monkeypatch) -> types.ModuleType:
    """Execute mutated module source under a throwaway module name."""
    name = "mutated_" + relpath[:-3].replace("/", "_")
    mod = types.ModuleType(name)
    monkeypatch.setitem(sys.modules, name, mod)
    exec(compile(source, relpath, "exec"), mod.__dict__)
    return mod


def _build(**kwargs) -> System:
    wl = Workload("t", [[Gap(1)] for _ in range(4)])
    return System(small_config(4), wl, **kwargs)


# ---------------------------------------------------------------------
# handler tables: caught at build time by System._make_endpoint
# ---------------------------------------------------------------------

HANDLER_TABLE = "    HANDLERS: ClassVar[Dict[MessageType, str]] = {"
PUT_ACK_LINE = '        MessageType.PUT_ACK: "_handle_put_ack",\n'


def test_missing_handler_registration_is_caught(monkeypatch):
    src = _source("htm/node.py")
    assert PUT_ACK_LINE in src
    mod = _load("htm/node.py", src.replace(PUT_ACK_LINE, ""), monkeypatch)
    with pytest.raises(ValueError, match="no handler for PUT_ACK"):
        _build(node_cls=mod.NodeController)


def test_double_registration_is_caught(monkeypatch):
    # the directory also maps PUT_ACK to an existing handler: the merge
    # would silently shadow one of the two
    import repro.system as system_mod
    mutated = _mutate("coherence/directory.py", HANDLER_TABLE,
                      '\n        MessageType.PUT_ACK: "_enqueue_or_service",')
    mod = _load("coherence/directory.py", mutated, monkeypatch)
    monkeypatch.setattr(system_mod, "DirectoryController",
                        mod.DirectoryController)
    with pytest.raises(ValueError, match="both handle PUT_ACK"):
        _build()


# ---------------------------------------------------------------------
# nondeterminism sources: caught by set-iteration / wall-clock
# ---------------------------------------------------------------------

SNAPSHOT_MARKER = '        out: Dict[str, object] = {}\n'


def test_set_iteration_in_snapshot_is_caught():
    mutated = _mutate("sim/stats.py", SNAPSHOT_MARKER,
                      "        extra = {1, 2, 3}\n"
                      "        for k in extra:\n"
                      "            out[str(k)] = k\n")
    line = mutated.splitlines().index("        for k in extra:") + 1
    hits = _lint("sim/stats.py", mutated, "set-iteration")
    assert [v.line for v in hits] == [line]


def test_wall_clock_in_sink_region_is_caught():
    mutated = ("import time\n" + _source("sim/engine.py")
               + "\n\ndef _stamp():\n    return time.time()\n")
    hits = _lint("sim/engine.py", mutated, "wall-clock")
    assert len(hits) == 1 and "time.time()" in hits[0].message


# ---------------------------------------------------------------------
# SoA snapshot contract: caught by snapshot-contract
# ---------------------------------------------------------------------

HANDLER_DEF = "    def _handle_put_ack(self, msg: Message) -> None:\n"


def _node_hits(statement: str):
    mutated = _mutate("htm/node.py", HANDLER_DEF,
                      f"        {statement}\n")
    return _lint("htm/node.py", mutated, "snapshot-contract")


def test_folded_view_access_in_event_path_is_caught():
    hits = _node_hits('_ = self.stats.messages_by_type["PUT_ACK"]')
    assert any("messages_by_type" in v.message for v in hits)


def test_rollover_fold_in_event_path_is_caught():
    """``stats.puno_timeouts`` sums every PUNO unit's rollover counter:
    reading it per request is flagged."""
    mutated = _mutate("core/puno.py",
                      "    def observe_request(self, msg: Message) -> None:\n",
                      "        _ = self.stats.puno_timeouts\n")
    hits = _lint("core/puno.py", mutated, "snapshot-contract")
    assert any("puno_timeouts" in v.message for v in hits)


def test_str_subscript_on_soa_field_is_caught():
    hits = _node_hits('self.stats._msg_counts["PUT_ACK"] = 1')
    assert any("_msg_counts" in v.message for v in hits)


def test_nodes_view_access_in_event_path_is_caught():
    """``stats.nodes`` is a folded view too: walking the per-node view
    objects inside a handler is flagged, while the construction-time
    binding in __init__ stays sanctioned."""
    src = _source("htm/node.py")
    assert "stats.nodes[node]" in src  # the sanctioned __init__ binding
    hits = _node_hits("_ = self.stats.nodes[self.node].tx_started")
    assert any(".nodes" in v.message for v in hits)
    # the unmutated module (same binding, __init__ only) stays clean
    assert _lint("htm/node.py", src, "snapshot-contract") == []


def test_str_subscript_on_node_soa_array_is_caught():
    hits = _node_hits('self.stats._ns_tx_started["n0"] = 1')
    assert any("_ns_tx_started" in v.message for v in hits)


def test_fold_node_stats_outside_boundary_is_caught():
    hits = _node_hits("_ = self.stats._fold_node_stats()")
    assert any("_fold_node_stats" in v.message for v in hits)


def test_directory_is_in_event_path_scope():
    """A folded-view access seeded into the directory's per-request
    ``_enqueue_or_service`` is flagged: directory.py is event-path."""
    mutated = _mutate("coherence/directory.py",
                      "    def _enqueue_or_service(self, msg: Message)"
                      " -> None:\n",
                      "        _ = self.stats.messages_by_type\n")
    assert _lint("coherence/directory.py", mutated, "snapshot-contract")


def test_snapshot_contract_respects_disable_comment():
    hits = _node_hits("_ = self.stats.messages_by_type  "
                      "# lint: disable=snapshot-contract")
    assert hits == []


# ---------------------------------------------------------------------
# worker submissions: caught by pickle-safe
# ---------------------------------------------------------------------

def test_lambda_submission_is_caught():
    mutated = (_source("analysis/parallel.py")
               + "\n\ndef _bad_submit(pool, spec):\n"
               "    return pool.submit(lambda: spec)\n")
    hits = _lint("analysis/parallel.py", mutated, "pickle-safe")
    assert any("lambda" in v.message for v in hits)
