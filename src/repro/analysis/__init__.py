"""repro.analysis -- static flow-graph linter + runtime sanitizer (TTG-San).

Four rule families, one catalog (:mod:`repro.analysis.rules`):

- :func:`lint_graph` / :func:`lint_ptg` statically analyze a constructed
  :class:`~repro.core.graph.TaskGraph` for wiring defects (``TTG0xx``
  rules) before any task runs;
- :class:`Sanitizer` observes an execution for runtime faults
  (``SAN0xx`` checks) with task/key provenance;
- :func:`shardsafe_graph` statically checks the preconditions for
  shared-nothing execution (``SHD0xx``): picklable closures,
  no captured runtime state, no free-variable/global mutation, rank-keyed
  scheduling paths;
- :func:`detect_races` replays a recorded telemetry stream through
  per-rank vector clocks and reports happens-before violations
  (``RACE0xx``).

All are wired into :meth:`repro.core.graph.Executable.make`: strict mode
raises on error-severity findings, the default warns; ``shardsafe=True``
adds the SHD pass at construction and the race detector at fence.  The
CLI (``python -m repro.analysis example.py``, ``python -m repro.analysis
shardsafe example.py --trace run.jsonl``) analyzes any script that builds
a graph and prints rule-grouped reports; see ``docs/analysis.md`` for the
full catalog and the exit-code contract.
"""

from repro.analysis.rules import (
    Finding,
    Rule,
    LINT_RULE_IDS,
    RACE_RULE_IDS,
    SANITIZER_RULE_IDS,
    SHARDSAFE_RULE_IDS,
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
from repro.analysis.shardsafe import (
    audit_runtime_modules,
    shardsafe_graph,
)

__all__ = [
    "Finding",
    "Rule",
    "LINT_RULE_IDS",
    "RACE_RULE_IDS",
    "SANITIZER_RULE_IDS",
    "SHARDSAFE_RULE_IDS",
    "all_rules",
    "audit_runtime_modules",
    "canonical_findings",
    "detect_races",
    "get_rule",
    "lint_graph",
    "lint_ptg",
    "merge_findings",
    "shardsafe_graph",
    "Sanitizer",
]
