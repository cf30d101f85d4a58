"""Simulator-specific static analysis (``repro lint``).

A custom AST-based lint suite enforcing the invariants that keep the
simulator deterministic, reproducible and safe to parallelize — the
rules a generic linter cannot know about:

* randomness must flow through :mod:`repro.sim.rng` streams,
* simulated time comes from ``Simulator.now``, never the wall clock,
* event order must not depend on unordered-set iteration,
* objects crossing the :mod:`repro.analysis.parallel` process boundary
  must stay picklable,
* cycle math stays in integers (no float ``==``, no float delays),
* SoA stats accumulators fold to str-keyed views only at the
  ``sim/stats.py`` snapshot boundary.

Every rule is a per-file AST pattern, checked in one pass over each
module.  Cross-module contracts that a per-file pass cannot see (every
``MessageType`` handled exactly once per endpoint) are enforced at
run time, by ``System._make_endpoint``.

Use :func:`lint_paths` programmatically or ``python -m repro lint``
from the command line.  The only way to suppress a finding is an
inline comment::

    something_flagged()  # lint: disable=<rule-id>

See :mod:`repro.lint.rules` for the rule catalogue and
:mod:`repro.lint.runner` for the report/exit-code contract.
"""

from repro.lint.rules import RULES, Violation
from repro.lint.runner import LintReport, lint_paths

__all__ = ["RULES", "Violation", "LintReport", "lint_paths"]
