"""repro.analysis -- static flow-graph linter + runtime sanitizer (TTG-San).

Three rule families, one catalog (:mod:`repro.analysis.rules`):

- :func:`lint_graph` statically analyzes a constructed
  :class:`~repro.core.graph.TaskGraph` for wiring defects and impure
  maps (``TTG0xx`` rules) before any task runs;
- :class:`Sanitizer` observes an execution for runtime faults
  (``SAN0xx`` checks) with task/key provenance, and keeps happens-before
  online through per-rank vector clocks to report races (``RACE0xx``):
  the simulated ranks share one address space, the modelled ones do
  not, so cross-rank aliasing is a real hazard.

Both are wired into :meth:`repro.core.graph.Executable.make`: the linter
runs at every binding, ``strict``/``sanitize`` arm the sanitizer (race
checks included, with or without telemetry); strict mode raises on
error-severity findings, the default warns.  There is no separate lint
command: ``tests/test_examples_smoke.py`` runs every fast example and
every paper app under ``strict=True`` and fails on any error or warning
finding.  See ``docs/analysis.md`` for the full catalog.
"""

from repro.analysis.rules import (
    Finding,
    Rule,
    LINT_RULE_IDS,
    RACE_RULE_IDS,
    SANITIZER_RULE_IDS,
    all_rules,
    get_rule,
)
from repro.analysis.lint import lint_graph
from repro.analysis.sanitizer import (
    Sanitizer,
    canonical_findings,
    merge_findings,
)

__all__ = [
    "Finding",
    "Rule",
    "LINT_RULE_IDS",
    "RACE_RULE_IDS",
    "SANITIZER_RULE_IDS",
    "all_rules",
    "canonical_findings",
    "get_rule",
    "lint_graph",
    "merge_findings",
    "Sanitizer",
]
