"""Static lint suite: one seeded fixture per rule, report contract,
disable comments, and the package-is-clean gate."""

import pytest

from repro.cli import main
from repro.lint.rules import RULES, active_rules
from repro.lint.runner import lint_paths, lint_source, list_rules_text


def _violations(source):
    """Lint a fixture snippet under the strictest scope (all rules)."""
    return lint_source(source, "<fixture>", relpath=None)


def _rules_hit(source):
    return {v.rule for v in _violations(source)}


# ---------------------------------------------------------------------
# one fixture per rule
# ---------------------------------------------------------------------

FIXTURES = {
    "sim-rng": "import random\nx = random.random()\n",
    "wall-clock": "import time\nt = time.time()\n",
    "set-iteration": "s = {1, 2, 3}\nfor x in s:\n    pass\n",
    "pickle-safe": "def outer():\n    def inner():\n        pass\n",
    "float-eq": "ok = (x / y) == 1.5\n",
    "mutable-default": "def f(items=[]):\n    return items\n",
    "int-cycles": "sim.schedule(delay * 1.5, fn)\n",
    "sim-print": "print('debug')\n",
    "sim-env": "import os\ndef f():\n    return os.environ.get('X')\n",
    "bare-except": "try:\n    f()\nexcept:\n    pass\n",
    "swallowed-error": "try:\n    f()\nexcept Exception:\n    pass\n",
    "dataclass-slots": ("from dataclasses import dataclass\n"
                        "@dataclass\n"
                        "class C:\n"
                        "    x: int\n"),
    "str-key-count": ("def on_msg(counts):\n"
                      "    counts['GETS'] += 1\n"),
    "event-alloc": ("def deliver(msg):\n"
                    "    meta = {'src': 1}\n"
                    "    return meta\n"),
    "snapshot-contract": ("def on_msg(stats):\n"
                          "    return stats.messages_by_type\n"),
}


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_each_rule_fires_on_its_fixture(rule):
    assert rule in _rules_hit(FIXTURES[rule])


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_each_fixture_exits_nonzero(rule, tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(FIXTURES[rule])
    report = lint_paths([bad])
    assert report.exit_code == 1
    assert any(v.rule == rule for v in report.violations)


def test_clean_file_exits_zero(tmp_path):
    ok = tmp_path / "ok.py"
    ok.write_text("import math\n\n\ndef f(x):\n    return math.sqrt(x)\n")
    report = lint_paths([ok])
    assert report.exit_code == 0
    assert report.violations == []
    assert report.files_scanned == 1


def test_unparseable_file_is_internal_error(tmp_path):
    bad = tmp_path / "syntax.py"
    bad.write_text("def broken(:\n")
    report = lint_paths([bad])
    assert report.exit_code == 2
    assert report.errors


# ---------------------------------------------------------------------
# rule details beyond the smoke fixtures
# ---------------------------------------------------------------------

def test_sim_rng_catches_from_import():
    assert "sim-rng" in _rules_hit("from random import choice\n")


def test_wall_clock_catches_datetime_now():
    src = "import datetime\nt = datetime.datetime.now()\n"
    assert "wall-clock" in _rules_hit(src)


def test_perf_counter_allowed():
    src = "import time\nt0 = time.perf_counter()\n"
    assert _violations(src) == []


def test_set_iteration_tracks_assigned_names():
    src = "s = set(items)\nout = [f(x) for x in s]\n"
    assert "set-iteration" in _rules_hit(src)


def test_set_iteration_known_attrs():
    src = "for n in entry.read_set:\n    pass\n"
    assert "set-iteration" in _rules_hit(src)


def test_sharers_bitmask_not_a_set_attr():
    # DirEntry.sharers is an int bitmask now: iterating it is a
    # TypeError at runtime, not an ordering hazard — the lint rule
    # must not claim otherwise.
    src = "x = sorted(entry.sharers)\nfor n in entry.sharers:\n    pass\n"
    assert "set-iteration" not in _rules_hit(src)


def test_sorted_set_is_clean():
    src = "s = {1, 2}\nfor x in sorted(s):\n    pass\n"
    assert _violations(src) == []


def test_tuple_of_set_flagged():
    src = "s = {1, 2}\nt = tuple(s)\n"
    assert "set-iteration" in _rules_hit(src)


def test_float_eq_requires_float_ingredient():
    assert _violations("ok = a == b\n") == []


def test_int_cycles_integer_delay_clean():
    assert _violations("sim.schedule(delay // 2, fn)\n") == []


def test_lambda_flagged_pickle_safe():
    assert "pickle-safe" in _rules_hit("f = lambda x: x\n")


def test_snapshot_contract_fold_boundary_is_stats_py_only():
    src = ("class Stats:\n"
           "    def snapshot(self):\n"
           "        return self._fold_node_stats()\n")
    assert lint_source(src, "<fixture>", relpath="sim/stats.py") == []
    hits = lint_source(src, "<fixture>", relpath="analysis/report.py")
    assert [v.rule for v in hits] == ["snapshot-contract"]


def test_pickle_safe_flags_bound_method_and_live_object_submission():
    src = ("class Sweep:\n"
           "    def go(self, pool, cfg, wl):\n"
           "        system = System(cfg, wl)\n"
           "        pool.submit(self.run_cell, cfg)\n"
           "        pool.submit(run_task, system)\n")
    lines = sorted(v.line for v in _violations(src)
                   if v.rule == "pickle-safe")
    assert lines == [4, 5]
    # a module-level task over picklable specs is fine
    ok = ("def go(pool, specs):\n"
          "    system = build(specs)\n"
          "    return pool.map(run_task, specs)\n")
    assert _violations(ok) == []


def test_dataclass_slots_true_is_clean():
    src = ("from dataclasses import dataclass\n"
           "@dataclass(slots=True)\n"
           "class C:\n"
           "    x: int\n")
    assert _violations(src) == []


def test_dataclass_explicit_dunder_slots_is_clean():
    src = ("from dataclasses import dataclass\n"
           "@dataclass\n"
           "class C:\n"
           "    __slots__ = ('x',)\n"
           "    x: int\n")
    assert _violations(src) == []


def test_dataclass_slots_attribute_spelling_flagged():
    src = ("import dataclasses\n"
           "@dataclasses.dataclass(frozen=True)\n"
           "class C:\n"
           "    x: int\n")
    assert "dataclass-slots" in _rules_hit(src)


def test_plain_class_not_flagged():
    assert _violations("class C:\n    x = 1\n") == []


def test_dataclass_slots_violation_at_class_line():
    src = ("from dataclasses import dataclass\n"
           "\n"
           "@dataclass\n"
           "class C:\n"
           "    x: int\n")
    vs = [v for v in _violations(src) if v.rule == "dataclass-slots"]
    assert len(vs) == 1 and vs[0].line == 4  # the `class C:` line


def test_dataclass_slots_disable_comment():
    src = ("from dataclasses import dataclass\n"
           "@dataclass(frozen=True)\n"
           "class C:  # lint: disable=dataclass-slots -- pickled\n"
           "    x: int\n")
    assert _violations(src) == []


# ---------------------------------------------------------------------
# event-path rule details (str-key-count / event-alloc)
# ---------------------------------------------------------------------

def test_str_key_count_int_index_clean():
    src = "def on_msg(counts, code):\n    counts[code] += 1\n"
    assert "str-key-count" not in _rules_hit(src)


def test_event_alloc_init_is_exempt():
    src = ("class C:\n"
           "    def __init__(self):\n"
           "        self.seen = {}\n"
           "        self.meta = {'a': 1}\n")
    assert "event-alloc" not in _rules_hit(src)


def test_event_alloc_module_level_clean():
    assert "event-alloc" not in _rules_hit("TABLE = {'a': 1}\n")


def test_event_alloc_comprehension_flagged():
    src = "def drain(q):\n    return {x for x in q}\n"
    assert "event-alloc" in _rules_hit(src)


def test_event_alloc_disable_comment():
    src = ("def deliver(msg):\n"
           "    meta = {'src': 1}  # lint: disable=event-alloc -- cold\n"
           "    return meta\n")
    assert "event-alloc" not in {v.rule for v in _violations(src)}


def test_str_key_count_disable_comment():
    src = ("def on_msg(counts):\n"
           "    counts['GETS'] += 1  # lint: disable=str-key-count\n")
    assert "str-key-count" not in {v.rule for v in _violations(src)}


def test_event_path_scope_resolution():
    for relpath in ("network/network.py", "htm/node.py",
                    "coherence/directory.py", "core/puno.py"):
        assert "str-key-count" in active_rules(relpath)
        assert "event-alloc" in active_rules(relpath)
    # the snapshot/report boundary legitimately builds str-keyed dicts
    for relpath in ("sim/stats.py", "analysis/report.py",
                    "workloads/stamp.py"):
        assert "str-key-count" not in active_rules(relpath)
        assert "event-alloc" not in active_rules(relpath)


# ---------------------------------------------------------------------
# swallowed-error details
# ---------------------------------------------------------------------

def test_swallowed_error_counting_body_is_clean():
    src = ("try:\n"
           "    f()\n"
           "except Exception:\n"
           "    failures += 1\n")
    assert "swallowed-error" not in _rules_hit(src)


def test_swallowed_error_logging_body_is_clean():
    src = ("try:\n"
           "    f()\n"
           "except Exception as exc:\n"
           "    log.warning('cell failed: %r', exc)\n")
    assert "swallowed-error" not in _rules_hit(src)


def test_swallowed_error_reraise_is_clean():
    src = ("try:\n"
           "    f()\n"
           "except Exception:\n"
           "    raise\n")
    assert "swallowed-error" not in _rules_hit(src)


def test_narrow_handler_may_pass():
    src = ("try:\n"
           "    f()\n"
           "except ValueError:\n"
           "    pass\n")
    assert "swallowed-error" not in _rules_hit(src)


def test_broad_type_inside_tuple_flagged():
    src = ("try:\n"
           "    f()\n"
           "except (ValueError, Exception):\n"
           "    pass\n")
    assert "swallowed-error" in _rules_hit(src)


def test_base_exception_with_docstring_body_flagged():
    src = ("try:\n"
           "    f()\n"
           "except BaseException:\n"
           "    'tolerated'\n")
    assert "swallowed-error" in _rules_hit(src)


def test_bare_except_pass_hits_both_rules():
    hits = _rules_hit(FIXTURES["bare-except"])
    assert {"bare-except", "swallowed-error"} <= hits


def test_swallowed_error_disable_comment():
    src = ("try:\n"
           "    f()\n"
           "except Exception:  # lint: disable=swallowed-error -- probe\n"
           "    pass\n")
    assert "swallowed-error" not in _rules_hit(src)


def test_swallowed_error_scope_is_orchestration():
    assert "swallowed-error" in active_rules("analysis/parallel.py")
    assert "swallowed-error" in active_rules("sim/resultcache.py")
    assert "swallowed-error" not in active_rules("htm/node.py")
    assert "swallowed-error" not in active_rules("network/network.py")


# ---------------------------------------------------------------------
# scopes
# ---------------------------------------------------------------------

def test_scope_catalogue_sizes():
    assert len(RULES) >= 8  # the acceptance floor
    assert len({r.id for r in RULES}) == len(RULES)


def test_sim_path_scope_resolution():
    assert "sim-print" in active_rules("htm/node.py")
    assert "sim-print" not in active_rules("analysis/report.py")
    assert "pickle-safe" in active_rules("analysis/parallel.py")
    assert "pickle-safe" not in active_rules("htm/node.py")
    assert "sim-rng" not in active_rules("sim/rng.py")  # the factory
    # fixtures outside the package get everything
    assert active_rules(None) == {r.id for r in RULES}


def test_schemes_package_is_sim_path_scoped():
    """Scheme plug-ins run inside the simulated machine, so the
    sim-path rules (prints, env reads) apply to ``schemes/`` exactly
    as they do to ``htm/``."""
    for relpath in ("schemes/phase_priority.py",
                    "schemes/adaptive_requeue.py",
                    "schemes/registry.py"):
        assert "sim-print" in active_rules(relpath), relpath
        assert "sim-env" in active_rules(relpath), relpath
        assert "sim-rng" in active_rules(relpath), relpath


def test_sim_rng_fires_on_unseeded_scheme_rng():
    """The seeded bug of the adaptive-requeue mutation meta-test, as
    the lint rule sees it: a scheme drawing from module-level
    ``random`` instead of its injected stream."""
    for draw in ("random.randint(0, 32)", "id(self) % 32",
                 "hash(self.name) % 32"):
        src = ("import random\n"
               "class MyCM:\n"
               "    def restart_backoff(self, node, k):\n"
               f"        return {draw}\n")
        violations = lint_source(src, "<fixture>",
                                 relpath="schemes/my_scheme.py")
        assert "sim-rng" in {v.rule for v in violations}, draw


def test_hot_path_scope_resolution():
    for relpath in ("network/message.py", "sim/engine.py",
                    "coherence/cache.py"):
        assert "dataclass-slots" in active_rules(relpath)
    for relpath in ("htm/node.py", "analysis/report.py", "workloads/stamp.py"):
        assert "dataclass-slots" not in active_rules(relpath)


# ---------------------------------------------------------------------
# disable comments
# ---------------------------------------------------------------------

def test_disable_comment_specific_rule():
    src = "import random\nx = random.random()  # lint: disable=sim-rng\n"
    assert _violations(src) == []


def test_disable_comment_all_rules():
    src = "import random\nx = random.random()  # lint: disable\n"
    assert _violations(src) == []


def test_disable_comment_other_rule_keeps_violation():
    src = "import random\nx = random.random()  # lint: disable=sim-print\n"
    assert "sim-rng" in {v.rule for v in _violations(src)}


def test_disable_on_first_line_covers_wrapped_statement():
    # the violation (the random call) sits on a continuation line, the
    # comment on the statement's first line — it must still apply
    src = ("import random\n"
           "x = compute(  # lint: disable=sim-rng\n"
           "    random.random(),\n"
           "    other,\n"
           ")\n")
    assert "sim-rng" not in _rules_hit(src)


def test_disable_on_first_line_multiline_tuple():
    src = ("s = {1, 2}\n"
           "pair = (  # lint: disable=set-iteration\n"
           "    tuple(s),\n"
           ")\n")
    assert "set-iteration" not in _rules_hit(src)


def test_disable_on_decorated_def_line():
    # dataclass-slots anchors at the `class` line, but the comment may
    # sit on the decorator (the statement's first physical line)
    src = ("from dataclasses import dataclass\n"
           "@dataclass  # lint: disable=dataclass-slots\n"
           "class C:\n"
           "    x: int\n")
    assert "dataclass-slots" not in _rules_hit(src)


def test_disable_on_def_header_does_not_blanket_body():
    # a disable on a compound statement's header covers the header
    # only — violations inside the body still fire
    src = ("import random\n"
           "def f():  # lint: disable=sim-rng\n"
           "    return random.random()\n")
    assert "sim-rng" in _rules_hit(src)


def test_disable_wrong_rule_on_first_line_keeps_violation():
    src = ("import random\n"
           "x = compute(  # lint: disable=sim-print\n"
           "    random.random(),\n"
           ")\n")
    assert "sim-rng" in _rules_hit(src)


# ---------------------------------------------------------------------
# rule-crash containment (exit code 2)
# ---------------------------------------------------------------------

def test_rule_crash_reports_error_and_keeps_scanning(tmp_path,
                                                     monkeypatch):
    import repro.lint.runner as runner_mod
    real_checker = runner_mod.FileChecker

    class ExplodingChecker(real_checker):
        def run(self):
            if "boom" in self.path:
                raise RuntimeError("rule exploded mid-visit")
            return super().run()

    monkeypatch.setattr(runner_mod, "FileChecker", ExplodingChecker)
    crash = tmp_path / "a_boom.py"
    crash.write_text("x = 1\n")
    dirty = tmp_path / "b_dirty.py"
    dirty.write_text(FIXTURES["sim-rng"])
    report = runner_mod.lint_paths([crash, dirty])
    # the crash is an error, not a silent skip...
    assert report.exit_code == 2
    assert any("rule crashed" in e and "RuntimeError" in e
               for e in report.errors)
    # ...and the scan continued: the second file's finding is present
    assert any(v.rule == "sim-rng" for v in report.violations)
    assert report.files_scanned == 1
    assert "error:" in report.render_text()


# ---------------------------------------------------------------------
# report format / CLI exit codes
# ---------------------------------------------------------------------

def test_text_report_format(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(FIXTURES["bare-except"])
    report = lint_paths([bad])
    line = report.render_text().splitlines()[0]
    # file:line rule-id message
    assert line.startswith(f"{bad}:")
    assert " bare-except " in line


def test_cli_lint_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(FIXTURES["mutable-default"])
    assert main(["lint", str(bad)]) == 1
    ok = tmp_path / "ok.py"
    ok.write_text("x = 1\n")
    assert main(["lint", str(ok)]) == 0
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert main(["lint", str(broken)]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.id in out
    assert list_rules_text() in out


# ---------------------------------------------------------------------
# the gate: the package itself must be clean
# ---------------------------------------------------------------------

def test_repro_package_is_lint_clean():
    report = lint_paths()
    assert report.errors == []
    assert report.violations == [], report.render_text()
    assert report.exit_code == 0
    assert report.files_scanned > 40


def test_cli_lint_package_clean_and_quiet(capsys):
    assert main(["lint"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("clean:")
    assert err == ""
