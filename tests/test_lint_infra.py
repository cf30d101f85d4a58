"""Rule explanations: every rule carries a long-form rationale, and
``repro lint --explain`` prints it."""

from repro.cli import main
from repro.lint.rules import RULES, RULES_BY_ID
from repro.lint.runner import explain_rule_text


def test_every_rule_has_a_rationale():
    for rule in RULES:
        assert rule.rationale and rule.rationale != rule.summary, rule.id


def test_explain_text_contains_rationale():
    text = explain_rule_text("snapshot-contract")
    assert "snapshot-contract" in text
    assert RULES_BY_ID["snapshot-contract"].rationale in text


def test_explain_unknown_rule_is_none():
    assert explain_rule_text("no-such-rule") is None


def test_cli_explain(capsys):
    assert main(["lint", "--explain", "sim-rng"]) == 0
    out = capsys.readouterr().out
    assert "RngFactory" in out
    assert main(["lint", "--explain", "bogus"]) == 2
    capsys.readouterr()
