"""repro.analysis -- static flow-graph linter + runtime sanitizer (TTG-San).

Three rule families, one catalog (:mod:`repro.analysis.rules`):

- :func:`lint_graph` / :func:`lint_ptg` statically analyze a constructed
  :class:`~repro.core.graph.TaskGraph` for wiring defects and impure
  maps (``TTG0xx`` rules) before any task runs;
- :class:`Sanitizer` observes an execution for runtime faults
  (``SAN0xx`` checks) with task/key provenance;
- :func:`detect_races` replays a recorded telemetry stream through
  per-rank vector clocks and reports happens-before violations
  (``RACE0xx``): the simulated ranks share one address space, the
  modelled ones do not, so cross-rank aliasing is a real hazard.

All are wired into :meth:`repro.core.graph.Executable.make`: the linter
runs at every binding, ``strict``/``sanitize`` arm the sanitizer and,
with telemetry attached, the race detector at a completed fence; strict
mode raises on error-severity findings, the default warns.  The CLI
(``python -m repro.analysis example.py [--trace run.jsonl]``) lints any
script that builds a graph, runs the race detector over recorded traces
and prints rule-grouped reports; see ``docs/analysis.md`` for the full
catalog and the exit-code contract.
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
from repro.analysis.lint import lint_graph, lint_ptg
from repro.analysis.race import detect_races
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
    "detect_races",
    "get_rule",
    "lint_graph",
    "lint_ptg",
    "merge_findings",
    "Sanitizer",
]
