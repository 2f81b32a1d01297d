"""Rule registry for TTG-San: static lint rules and runtime sanitizer checks.

Every diagnostic the analysis layer can emit is declared here as a
:class:`Rule` with a stable id (``TTG0xx`` for static lint, ``SAN0xx`` for
the runtime sanitizer), a severity, and a fix hint.  Findings reference
rules by object, so reports, waivers, and strict-mode filtering all share
one source of truth.

Severities
----------
``info``
    Worth surfacing (e.g. seed-only input terminals) but expected in
    correct graphs; never fails the CLI.
``warning``
    Suspicious wiring that is legal but a common defect source; fails the
    CLI only under ``--strict``.
``error``
    The graph (or execution) is wrong or will misbehave; ``Executable``
    warns by default and raises in strict mode, and the CLI exits nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Valid severities, weakest to strongest.
SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Rule:
    """One diagnostic kind: stable id, severity, and a fix hint."""

    id: str
    severity: str
    title: str
    hint: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"invalid severity {self.severity!r} for rule {self.id}")


@dataclass
class Finding:
    """One concrete diagnostic: a rule applied at a location."""

    rule: Rule
    message: str
    location: str = ""

    def __str__(self) -> str:
        where = f"{self.location}: " if self.location else ""
        return f"{self.rule.id} [{self.rule.severity}] {where}{self.message}"


_REGISTRY: Dict[str, Rule] = {}


def _rule(id: str, severity: str, title: str, hint: str) -> Rule:
    r = Rule(id, severity, title, hint)
    if id in _REGISTRY:
        raise ValueError(f"duplicate rule id {id}")
    _REGISTRY[id] = r
    return r


def get_rule(rule_id: str) -> Rule:
    """Look up a rule by id (raises KeyError for unknown ids)."""
    return _REGISTRY[rule_id]


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, lint first, in id order."""
    return tuple(_REGISTRY[k] for k in sorted(_REGISTRY))


# ---------------------------------------------------------------- lint rules

TTG001 = _rule(
    "TTG001", "info", "unfed-input",
    "input edges without a producer must be fed via invoke/inject; "
    "wire a producer terminal or seed them explicitly",
)
TTG002 = _rule(
    "TTG002", "warning", "dangling-output",
    "any send on an output terminal whose edge has no consumer raises "
    "DeliveryError at runtime; connect a consumer or drop the terminal",
)
TTG003 = _rule(
    "TTG003", "error", "key-type-conflict",
    "all input edges of one template task must declare compatible key "
    "types: messages are matched by task ID, so disjoint key types can "
    "never assemble a task instance",
)
TTG004 = _rule(
    "TTG004", "warning", "unreachable-template",
    "no chain of edges connects this template to a source (a template "
    "with no inputs or with an injectable input); it can only ever run "
    "via direct invoke",
)
TTG005 = _rule(
    "TTG005", "warning", "unbounded-stream-cycle",
    "a cycle through a streaming terminal with no static stream size can "
    "deadlock if no one calls set_size/finalize; declare a size, finalize "
    "dynamically, or waive with tt.lint_waive('TTG005')",
)
TTG006 = _rule(
    "TTG006", "error", "keymap-invalid",
    "a keymap must be a pure function of the task ID returning an int "
    "rank in [0, nranks); fix the map or the cluster size",
)
TTG007 = _rule(
    "TTG007", "error", "priomap-invalid",
    "a priority map must return an int for every task ID",
)
TTG008 = _rule(
    "TTG008", "error", "ptg-undefined-ref",
    "PTG flow destinations must be (class, key, flow) triples referencing "
    "declared task classes and flows",
)
TTG009 = _rule(
    "TTG009", "warning", "void-stream",
    "a streaming terminal on a Void-valued edge reduces over None values; "
    "declare a value type or use a plain terminal",
)
TTG010 = _rule(
    "TTG010", "error", "ptg-bad-mode",
    "PTG flow copy mode must be one of 'value', 'cref', 'move'",
)

# ----------------------------------------------------------- sanitizer rules

SAN001 = _rule(
    "SAN001", "error", "duplicate-delivery",
    "two messages were routed to the same non-streaming (terminal, task "
    "ID); exactly one producer may feed each input per task ID",
)
SAN002 = _rule(
    "SAN002", "error", "task-id-reuse",
    "a message or invoke targeted a task ID whose instance already "
    "fired; task IDs must be unique per template for one execution",
)
SAN003 = _rule(
    "SAN003", "error", "cref-mutation",
    "data shared by const-ref (mode='cref') was mutated after the send; "
    "use mode='value' (copy) or stop mutating after sharing",
)
SAN004 = _rule(
    "SAN004", "error", "stream-after-fire",
    "set_size/finalize reached a streaming terminal whose task instance "
    "already fired; stream control must precede task readiness",
)
SAN005 = _rule(
    "SAN005", "error", "data-copy-leak",
    "data delivered into the graph was never consumed by a task (or a "
    "splitmd source was never released) at shutdown; the runtime-owned "
    "data life-cycle leaked",
)
SAN006 = _rule(
    "SAN006", "error", "stranded-messages",
    "task instances were still waiting on inputs at termination; some "
    "producer never sent, or keys/stream sizes do not line up",
)
SAN007 = _rule(
    "SAN007", "error", "use-after-move",
    "a value relinquished with mode='move' was sent again; moved data "
    "belongs to the runtime after the first send",
)

# ---------------------------------------------------- shard-safety rules
#
# The SHD family is the static half of repro.analysis.shardsafe: the
# machine-checkable preconditions for running a graph with disjoint
# per-rank address spaces.  Task bodies and
# event callables must be pure functions of their declared inputs, their
# captured state must either pickle or be reconstructible per process,
# and every scheduling path must carry a rank.

SHD001 = _rule(
    "SHD001", "error", "unpicklable-capture",
    "a task body (or map/reducer) captures state that cannot cross a "
    "process boundary (locks, file handles, sockets, generators); pass "
    "data through terminals or reconstruct the resource per rank",
)
SHD002 = _rule(
    "SHD002", "error", "runtime-state-capture",
    "a task body (or map/reducer) captures a live runtime object "
    "(engine, cluster, backend, executable, world, comm engine, event "
    "bus); runtime state is per-process in a shared-nothing engine and "
    "must never be closed over",
)
SHD003 = _rule(
    "SHD003", "warning", "nested-callable-capture",
    "a task body captures a lambda or nested function; such callables "
    "do not pickle -- hoist the helper to module level or rebuild it "
    "inside the body",
)
SHD004 = _rule(
    "SHD004", "error", "free-var-mutation",
    "a task body assigns to a closure free variable (nonlocal); in a "
    "shared-nothing engine each process sees its own copy, so the "
    "mutation is silently lost -- thread the state through terminals",
)
SHD005 = _rule(
    "SHD005", "warning", "global-mutation",
    "a task body assigns to a module global; per-process module state "
    "diverges silently across ranks -- thread the state through "
    "terminals or keep it rank-keyed",
)
SHD006 = _rule(
    "SHD006", "warning", "mutable-data-capture",
    "a task body captures a mutable data value (tile, ndarray, matrix "
    "container, dict/list) instead of receiving it via declared input "
    "terminals; closure-shared data cannot be distribution-managed by a "
    "shared-nothing engine",
)
SHD007 = _rule(
    "SHD007", "warning", "map-impure-capture",
    "a keymap/priomap/devicemap/cost function captures mutable or "
    "runtime state; maps must be pure functions of the task ID so every "
    "process computes identical placements",
)
SHD008 = _rule(
    "SHD008", "warning", "unranked-engine-path",
    "a scheduling call (schedule/schedule_at/post_local/...) passes no "
    "rank= hint, so the event lands on shard 0; annotate intentional "
    "cases with '# shard-safe: unranked-ok' or thread the rank through",
)
# ------------------------------------------------------------- race rules
#
# The RACE family is the dynamic half: a happens-before race detector
# over the telemetry event stream (per-rank vector clocks built from task
# spans, dep instants, and zero-copy alias instants).

RACE001 = _rule(
    "RACE001", "error", "unordered-write-read",
    "a tile buffer was written on one rank and read on another with no "
    "happens-before edge between the accesses; add a dependency edge or "
    "copy the data (mode='value')",
)
RACE002 = _rule(
    "RACE002", "error", "unordered-write-write",
    "the same tile buffer was written from two ranks with no ordering "
    "edge between the writes; the result depends on scheduling",
)
RACE003 = _rule(
    "RACE003", "error", "cross-rank-aliasing",
    "one buffer was observed zero-copy-aliased on two ranks; in a "
    "shared-nothing engine ranks have disjoint address spaces, so "
    "aliased state must become per-rank copies or messages",
)
RACE004 = _rule(
    "RACE004", "error", "mutation-outside-owner-span",
    "a sanitizer-visible mutation of shared data happened outside the "
    "owning task's execution span; only the task that owns a buffer "
    "may write it",
)

#: ids of the static lint rules / sanitizer checks, in order.
LINT_RULE_IDS = tuple(r.id for r in all_rules() if r.id.startswith("TTG"))
SANITIZER_RULE_IDS = tuple(r.id for r in all_rules() if r.id.startswith("SAN"))
SHARDSAFE_RULE_IDS = tuple(r.id for r in all_rules() if r.id.startswith("SHD"))
RACE_RULE_IDS = tuple(r.id for r in all_rules() if r.id.startswith("RACE"))

# A read-only snapshot for importers; new rules must be declared in this
# module so docs/analysis.md stays the complete catalog.
registry: Dict[str, Rule] = dict(_REGISTRY)
