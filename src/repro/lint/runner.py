"""Lint driver: file discovery, disable comments, reports, exit codes.

Exit-code contract (consumed by CI and future tooling):

* **0** — every scanned file is clean;
* **1** — at least one violation (after disable-comment filtering);
* **2** — internal error: a target could not be read or parsed, or a
  rule crashed mid-scan.  Errors are reported alongside any violations
  found in the files that *did* scan.

The report is text, one ``path:line rule message`` line per finding.
A disable comment is the only way to suppress one::

    x = random.random()  # lint: disable=sim-rng
    y = whatever()       # lint: disable        (all rules, this line)

A disable comment on the *first line* of a logical statement covers
the whole statement — a wrapped call's violation may be attributed to
a continuation line, and a decorated ``def``'s to the ``def`` line,
but the comment belongs where a reader looks first.  For compound
statements (``def``/``for``/``with``/...) the comment covers the
header only, never the body: blanket-disabling a whole function takes
one comment per finding, on purpose.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.lint.rules import (
    RULES,
    RULES_BY_ID,
    FileChecker,
    Violation,
    active_rules,
)

_DISABLE_RE = re.compile(r"#\s*lint:\s*disable(?:=([\w,-]+))?")

_COMPOUND_STMTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                   ast.If, ast.For, ast.AsyncFor, ast.While, ast.With,
                   ast.AsyncWith, ast.Try)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def exit_code(self) -> int:
        """0 clean / 1 violations / 2 internal error."""
        if self.errors:
            return 2
        return 1 if self.violations else 0

    def render_text(self) -> str:
        lines = [v.render() for v in self.violations]
        lines += [f"error: {e}" for e in self.errors]
        tail = (f"{len(self.violations)} violation(s) in "
                f"{self.files_scanned} file(s)")
        if not self.violations and not self.errors:
            tail = f"clean: {self.files_scanned} file(s), no violations"
        lines.append(tail)
        return "\n".join(lines)


# ---------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------

def package_root() -> Path:
    """The installed ``repro`` package directory (the default target)."""
    import repro
    return Path(repro.__file__).parent


def _iter_py_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    out: List[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        else:
            out.append(p)
    return out


def _relpath_in_package(path: Path) -> Optional[str]:
    """Posix path of ``path`` relative to the repro package, or None
    when the file lives outside it (fixtures get every rule)."""
    try:
        resolved = path.resolve()
        root = package_root().resolve()
        return resolved.relative_to(root).as_posix()
    except ValueError:
        return None


# ---------------------------------------------------------------------
# disable comments
# ---------------------------------------------------------------------

def _disabled_rules_by_line(source: str) -> Dict[int, Optional[Set[str]]]:
    """line -> set of disabled rule ids (None = all rules), from the
    raw comment text only (no statement extension yet)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _DISABLE_RE.search(line)
        if not m:
            continue
        if m.group(1) is None:
            out[i] = None
        else:
            out[i] = {tok.strip() for tok in m.group(1).split(",")
                      if tok.strip()}
    return out


def _statement_extents(tree: ast.Module
                       ) -> List[Tuple[Set[int], int, int]]:
    """(anchor lines, first line, last line) for every statement.

    A disable comment on an anchor line covers [first, last].  Simple
    statements span their full logical extent (a wrapped call is one
    statement across many lines).  Compound statements cover only
    their header — first physical line (a decorator, for decorated
    defs) through the line before the body starts — with both the
    first line and the ``def``/``class`` keyword line as anchors, so
    the comment reads naturally in either position.
    """
    out: List[Tuple[Set[int], int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, _COMPOUND_STMTS):
            first = node.lineno
            decorators = getattr(node, "decorator_list", [])
            if decorators:
                first = min(first, min(d.lineno for d in decorators))
            body = getattr(node, "body", None)
            last = (body[0].lineno - 1 if body
                    else getattr(node, "end_lineno", node.lineno))
            if last >= first:
                out.append(({first, node.lineno}, first, last))
        elif isinstance(node, ast.ExceptHandler):
            last = (node.body[0].lineno - 1 if node.body
                    else getattr(node, "end_lineno", node.lineno))
            if last >= node.lineno:
                out.append(({node.lineno}, node.lineno, last))
        elif isinstance(node, ast.stmt):
            last = getattr(node, "end_lineno", node.lineno)
            out.append(({node.lineno}, node.lineno, last))
    return out


def _disable_map(source: str,
                 tree: Optional[ast.Module]) -> Dict[int,
                                                     Optional[Set[str]]]:
    """Effective line -> disabled-rules map: raw comment lines,
    extended across each logical statement anchored at a commented
    line.  ``None`` (all rules) absorbs specific sets."""
    raw = _disabled_rules_by_line(source)
    if tree is None or not raw:
        return raw
    merged: Dict[int, Optional[Set[str]]] = {
        line: (None if rules is None else set(rules))
        for line, rules in raw.items()}
    for anchors, first, last in _statement_extents(tree):
        hit = [raw[a] for a in anchors if a in raw]
        if not hit:
            continue
        rules: Optional[Set[str]] = set()
        for h in hit:
            if h is None:
                rules = None
                break
            rules |= h
        for line in range(first, last + 1):
            cur = merged.get(line, set())
            if rules is None or cur is None:
                merged[line] = None
            else:
                merged[line] = set(cur) | rules
    return merged


def filter_disabled(source: str, tree: Optional[ast.Module],
                    violations: Iterable[Violation]) -> List[Violation]:
    """Drop violations silenced by ``# lint: disable`` comments."""
    disabled = _disable_map(source, tree)
    kept: List[Violation] = []
    for v in violations:
        rules_off = disabled.get(v.line)
        if v.line not in disabled:
            kept.append(v)
        elif rules_off is not None and v.rule not in rules_off:
            kept.append(v)
    return kept


# ---------------------------------------------------------------------
# per-file scan
# ---------------------------------------------------------------------

def lint_source(source: str, path: str,
                relpath: Optional[str]) -> List[Violation]:
    """Lint one module's source text (parsed fresh).  Raises
    SyntaxError for unparseable input; rule crashes propagate (the
    path-level driver contains them per file)."""
    tree = ast.parse(source, filename=path)
    rules = active_rules(relpath)
    violations = FileChecker(path, tree, rules, relpath).run()
    return filter_disabled(source, tree, violations)


def lint_paths(paths: Optional[Iterable[Union[str, Path]]] = None
               ) -> LintReport:
    """Lint files/directories (default: the whole repro package).

    A rule crash in one file is reported as an error and the scan
    continues (exit code 2).
    """
    if paths is None:
        scan_paths: List[Union[str, Path]] = [package_root()]
    else:
        scan_paths = list(paths)
    report = LintReport()
    for path in _iter_py_files(scan_paths):
        try:
            source = path.read_text()
        except OSError as exc:
            report.errors.append(f"{path}: unreadable ({exc})")
            continue
        try:
            found = lint_source(source, str(path),
                                _relpath_in_package(path))
        except SyntaxError as exc:
            report.errors.append(
                f"{path}: parse failure (line {exc.lineno}: {exc.msg})")
            continue
        except Exception as exc:
            # a crashing rule must not kill the scan: report the file,
            # keep going, and let exit_code surface the 2
            report.errors.append(
                f"{path}: rule crashed "
                f"({exc.__class__.__name__}: {exc})")
            continue
        report.files_scanned += 1
        report.violations.extend(found)
    report.violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return report


def list_rules_text() -> str:
    """Human-readable rule catalogue (``repro lint --list-rules``)."""
    width = max(len(r.id) for r in RULES)
    lines = [f"{r.id:<{width}}  [{r.scope}]  {r.summary}" for r in RULES]
    return "\n".join(lines)


def explain_rule_text(rule_id: str) -> Optional[str]:
    """Long-form rationale for one rule (``repro lint --explain``)."""
    rule = RULES_BY_ID.get(rule_id)
    if rule is None:
        return None
    return (f"{rule.id}  [{rule.scope}]\n"
            f"  {rule.summary}\n\n"
            f"{rule.rationale or rule.summary}")


__all__ = ["LintReport", "explain_rule_text", "filter_disabled",
           "lint_paths", "lint_source", "list_rules_text",
           "package_root", "RULES_BY_ID"]
