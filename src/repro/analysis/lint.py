"""Static flow-graph linter: analyze a TaskGraph before execution.

The C++ TTG catches a class of wiring defects at compile time through its
typed edges; this Python reproduction replaces that with runtime checks,
so defects like unconnected terminals, disjoint key types, or out-of-range
keymaps otherwise surface mid-execution or never.  :func:`lint_graph`
inspects a constructed (but not yet executing) graph and returns
:class:`~repro.analysis.rules.Finding` objects for everything suspicious.

Rule implementations are registered with the :func:`lint_rule` decorator;
each receives a :class:`LintContext` and yields findings.  The rule
catalog (ids, severities, hints) lives in :mod:`repro.analysis.rules` and
is documented in ``docs/analysis.md``.

Keymaps and priority maps are *probed*: we call them with a battery of
representative task IDs (ints in ``[0, nranks)``, small tuples, ``None``,
a string, an MRA-style tree key) and flag out-of-range ranks, non-int
returns, and non-determinism.  A probe key a map cannot handle at all
(raises) is silently skipped -- the key space is the application's
business; only misbehaviour on keys a map *accepts* is a finding.  The
same maps are also inspected for what they close over (TTG011): a map
that captures mutable data or a runtime object is not a pure function
of the task ID.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.rules import Finding, get_rule
from repro.core.edge import Void

_LINT_RULES: List[Tuple[str, Callable[["LintContext"], Iterator[Finding]]]] = []


def lint_rule(rule_id: str):
    """Register a generator function implementing one lint rule."""

    def deco(fn: Callable[["LintContext"], Iterator[Finding]]):
        _LINT_RULES.append((rule_id, fn))
        return fn

    return deco


class LintContext:
    """Everything a rule implementation may inspect."""

    def __init__(self, graph: Any, nranks: Optional[int]) -> None:
        self.graph = graph
        self.nranks = nranks
        # Per edge id of the graph, the live (template, index) ends: an
        # edge refers to its templates weakly (repro.core.edge).
        edges = graph.edges()
        self.producers: Dict[int, List[Tuple[Any, int]]] = {
            e.id: [(tt, i) for ref, i in e.producers if (tt := ref()) is not None]
            for e in edges}
        self.consumers: Dict[int, List[Tuple[Any, int]]] = {
            e.id: [(tt, i) for ref, i in e.consumers if (tt := ref()) is not None]
            for e in edges}

    # ------------------------------------------------------------- helpers

    def finding(self, rule_id: str, location: str, message: str) -> Finding:
        return Finding(get_rule(rule_id), message, location=location)

    @staticmethod
    def waived(tt: Any, rule_id: str) -> bool:
        """Whether ``tt`` acknowledges ``rule_id`` (``tt.lint_waive``)."""
        return rule_id in tt._lint_waivers

    def loc(self, tt: Any, terminal: Any = None) -> str:
        base = f"{self.graph.name}/{tt.name}"
        return f"{base}.{terminal.name}" if terminal is not None else base

    def probe_keys(self) -> List[Any]:
        """Representative task IDs used to probe keymaps/priomaps."""
        n = self.nranks if self.nranks else 4
        keys: List[Any] = list(range(min(n, 16)))
        keys += [(i, j) for i in range(2) for j in range(2)]
        keys += [(1, 2), None, "k0", (0, 1, (0, 0, 0))]
        return keys


def lint_graph(graph: Any, nranks: Optional[int] = None) -> List[Finding]:
    """Lint a constructed TaskGraph.

    ``nranks`` is the cluster size for keymap range checks; ``None``
    probes against a nominal 4-rank cluster (range findings then only
    fire for maps that are wrong for *any* cluster, e.g.
    non-deterministic ones).  A template suppresses a rule for itself
    with ``tt.lint_waive("TTG005")``.
    """
    ctx = LintContext(graph, nranks)
    out: List[Finding] = []
    for _, fn in _LINT_RULES:
        out.extend(fn(ctx))
    return out


# ============================================================== wiring rules


@lint_rule("TTG001")
def _unfed_inputs(ctx: LintContext) -> Iterator[Finding]:
    """Input terminals whose edge has no producer (seed-only)."""
    for tt in ctx.graph.tts:
        if ctx.waived(tt, "TTG001"):
            continue
        for t in tt.inputs:
            if not ctx.producers[t.edge.id]:
                yield ctx.finding(
                    "TTG001", ctx.loc(tt, t),
                    f"edge {t.edge.name!r} has no producer "
                    "(must be fed via invoke/inject)",
                )


@lint_rule("TTG002")
def _dangling_outputs(ctx: LintContext) -> Iterator[Finding]:
    """Output terminals whose edge has no consumer (sends will fail)."""
    for tt in ctx.graph.tts:
        if ctx.waived(tt, "TTG002"):
            continue
        for t in tt.outputs:
            if not ctx.consumers[t.edge.id]:
                yield ctx.finding(
                    "TTG002", ctx.loc(tt, t),
                    f"edge {t.edge.name!r} has no consumer "
                    "(sends on it will raise DeliveryError)",
                )


def _key_types_compatible(a: Any, b: Any) -> bool:
    if a is Void or b is Void:
        return a is b
    try:
        return issubclass(a, b) or issubclass(b, a)
    except TypeError:
        return True  # exotic type declarations: give the benefit of doubt


@lint_rule("TTG003")
def _key_type_conflicts(ctx: LintContext) -> Iterator[Finding]:
    """Disjoint declared key types across one template's input edges.

    Task instantiation matches messages by task ID: if one input edge
    only ever carries ``int`` keys and another only ``str`` keys, no task
    of this template can ever assemble -- a silent deadlock in C++ TTG
    terms, a type error here.
    """
    for tt in ctx.graph.tts:
        if ctx.waived(tt, "TTG003"):
            continue
        declared = [
            (t, t.edge.key_type) for t in tt.inputs if t.edge.key_type is not None
        ]
        for i in range(1, len(declared)):
            t0, k0 = declared[i - 1]
            t1, k1 = declared[i]
            if not _key_types_compatible(k0, k1):
                name0 = getattr(k0, "__name__", str(k0))
                name1 = getattr(k1, "__name__", str(k1))
                yield ctx.finding(
                    "TTG003", ctx.loc(tt),
                    f"input terminals {t0.name} ({t0.edge.name!r}: {name0}) and "
                    f"{t1.name} ({t1.edge.name!r}: {name1}) declare incompatible "
                    "key types: messages can never match to fire a task",
                )


@lint_rule("TTG004")
def _unreachable_templates(ctx: LintContext) -> Iterator[Finding]:
    """Templates no source template can reach through edges.

    Sources are templates with no inputs (pure initiators), templates
    with at least one producer-less input terminal (injectable), and
    templates that waive this rule -- the waiver declares "I am seeded
    externally", so everything downstream of a waived template counts as
    reachable.
    """
    tts = ctx.graph.tts
    sources = [
        tt
        for tt in tts
        if tt.num_inputs == 0
        or any(not ctx.producers[t.edge.id] for t in tt.inputs)
        or ctx.waived(tt, "TTG004")
    ]
    reached: Set[int] = {tt.id for tt in sources}
    frontier = list(sources)
    while frontier:
        tt = frontier.pop()
        for t in tt.outputs:
            for ref, _ in t.edge.consumers:
                ctt = ref()
                if ctt is not None and ctt.id not in reached:
                    reached.add(ctt.id)
                    frontier.append(ctt)
    for tt in tts:
        if tt.id not in reached and not ctx.waived(tt, "TTG004"):
            yield ctx.finding(
                "TTG004", ctx.loc(tt),
                "not reachable from any source template; it can only run "
                "via direct invoke",
            )


def _template_sccs(tts: Tuple[Any, ...]) -> List[List[Any]]:
    """Strongly connected components of the template digraph (Tarjan,
    iterative).  Returns only components that contain a cycle."""
    succ: Dict[int, List[Any]] = {}
    by_id: Dict[int, Any] = {tt.id: tt for tt in tts}
    for tt in tts:
        outs = []
        for t in tt.outputs:
            for ref, _ in t.edge.consumers:
                ctt = ref()
                if ctt is not None and ctt.id in by_id:
                    outs.append(ctt)
        succ[tt.id] = outs
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[Any] = []
    sccs: List[List[Any]] = []
    counter = [0]

    for root in tts:
        if root.id in index:
            continue
        work = [(root, iter(succ[root.id]))]
        index[root.id] = low[root.id] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root.id)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt.id not in index:
                    index[nxt.id] = low[nxt.id] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt.id)
                    work.append((nxt, iter(succ[nxt.id])))
                    advanced = True
                    break
                if nxt.id in on_stack:
                    low[node.id] = min(low[node.id], index[nxt.id])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent.id] = min(low[parent.id], low[node.id])
            if low[node.id] == index[node.id]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w.id)
                    comp.append(w)
                    if w.id == node.id:
                        break
                has_self_loop = any(s.id == node.id for s in succ[node.id])
                if len(comp) > 1 or has_self_loop:
                    sccs.append(comp)
    return sccs


@lint_rule("TTG005")
def _unbounded_stream_cycles(ctx: LintContext) -> Iterator[Finding]:
    """Streaming terminals inside a cycle with no static stream size.

    A stream fed from within its own cycle and bounded neither statically
    nor (detectably) dynamically risks deadlock: the task never fires, so
    the cycle never produces the messages that would close the stream.
    """
    for comp in _template_sccs(ctx.graph.tts):
        members = {tt.id for tt in comp}
        names = sorted(tt.name for tt in comp)
        for tt in comp:
            if ctx.waived(tt, "TTG005"):
                continue
            for t in tt.inputs:
                if not t.is_streaming or t.static_stream_size is not None:
                    continue
                fed_in_cycle = any(p.id in members
                                   for p, _ in ctx.producers[t.edge.id])
                if fed_in_cycle:
                    yield ctx.finding(
                        "TTG005", ctx.loc(tt, t),
                        f"streaming terminal with no static size is fed from "
                        f"inside cycle {{{', '.join(names)}}}: deadlock unless "
                        "set_size/finalize is called dynamically",
                    )


@lint_rule("TTG009")
def _void_streams(ctx: LintContext) -> Iterator[Finding]:
    """Streaming terminals reducing over a Void-valued edge."""
    for tt in ctx.graph.tts:
        if ctx.waived(tt, "TTG009"):
            continue
        for t in tt.inputs:
            if t.is_streaming and t.edge.value_type is Void:
                yield ctx.finding(
                    "TTG009", ctx.loc(tt, t),
                    f"streaming terminal on Void-valued edge {t.edge.name!r}: "
                    "the reducer folds None values",
                )


# ================================================================ map rules


@lint_rule("TTG006")
def _keymap_probe(ctx: LintContext) -> Iterator[Finding]:
    """Probe user keymaps: range, return type, determinism.

    A map may legitimately accept probe keys outside its real domain and
    return garbage for them (e.g. an identity rank map handed a tuple,
    or a ``key[0]`` map handed a string), so shape evidence is weighed:
    non-int returns only count when the map never produced a valid int
    rank for *any* accepted probe.  An out-of-range *int* return and
    non-determinism are always findings.
    """
    nranks = ctx.nranks
    for tt in ctx.graph.tts:
        if tt._keymap is None or ctx.waived(tt, "TTG006"):
            continue  # default crc32 map is always valid
        int_ok = False
        nonint_return = None  # (key, value)
        range_violation = None  # (key, rank)
        finding = None
        for key in ctx.probe_keys():
            try:
                rank = tt._keymap(key)
            except Exception:
                continue  # key shape outside this map's domain
            if not isinstance(rank, int) or isinstance(rank, bool):
                if nonint_return is None:
                    nonint_return = (key, rank)
                continue
            try:
                again = tt._keymap(key)
            except Exception:
                again = rank
            if again != rank:
                finding = ctx.finding(
                    "TTG006", ctx.loc(tt),
                    f"keymap is not a function of the task ID: "
                    f"keymap({key!r}) gave {rank} then {again} "
                    "(the key space would not partition across ranks)",
                )
                break
            if nranks is not None and not (0 <= rank < nranks):
                if range_violation is None:
                    range_violation = (key, rank)
                continue
            int_ok = True
        if finding is None and range_violation is not None:
            key, rank = range_violation
            finding = ctx.finding(
                "TTG006", ctx.loc(tt),
                f"keymap({key!r}) = {rank} out of range [0, {nranks})",
            )
        if finding is None and nonint_return is not None and not int_ok:
            key, rank = nonint_return
            finding = ctx.finding(
                "TTG006", ctx.loc(tt),
                f"keymap({key!r}) returned {rank!r} "
                f"({type(rank).__name__}), not an int rank",
            )
        if finding is not None:
            yield finding


@lint_rule("TTG007")
def _priomap_probe(ctx: LintContext) -> Iterator[Finding]:
    """Probe priority maps: must return ints.

    As with TTG006, a probe key outside the map's real domain may return
    garbage; the finding fires only when the map never returned an int
    for any accepted probe key.
    """
    for tt in ctx.graph.tts:
        if tt._priomap is None or ctx.waived(tt, "TTG007"):
            continue
        int_ok = False
        nonint = None
        for key in ctx.probe_keys():
            try:
                prio = tt._priomap(key)
            except Exception:
                continue
            if isinstance(prio, int) and not isinstance(prio, bool):
                int_ok = True
            elif nonint is None:
                nonint = (key, prio)
        if nonint is not None and not int_ok:
            key, prio = nonint
            yield ctx.finding(
                "TTG007", ctx.loc(tt),
                f"priority map({key!r}) returned {prio!r} "
                f"({type(prio).__name__}), not an int",
            )


#: Type names of live runtime objects, matched along a captured value's
#: MRO so that no runtime subsystem is imported here.
_RUNTIME_TYPE_NAMES = frozenset({
    "Backend", "Executable", "Cluster", "Engine", "CommEngine", "RmaWindow",
    "EventBus", "Telemetry", "Sanitizer",
    "WorkerPool",
})

#: Methods that mark a value as mutable application data: tiles and
#: ndarrays (``clone``/``tobytes``), matrix containers (the rest).
_DATA_METHODS = ("clone", "tobytes", "tile_at", "set_tile", "block", "set_block")


def _map_captures(fn: Any) -> Iterator[Tuple[str, Any]]:
    """(name, value) of the state a map callable closes over: the map
    itself when it is a bound method (judged by what it is bound to),
    closure cells, the globals its code references, argument defaults."""
    if hasattr(fn, "__self__"):
        yield "self", fn
    func = getattr(fn, "__func__", fn)
    if not inspect.isfunction(func):
        return
    cv = inspect.getclosurevars(func)
    yield from sorted(cv.nonlocals.items())
    yield from sorted(cv.globals.items())
    for i, value in enumerate(func.__defaults__ or ()):
        yield f"default[{i}]", value
    yield from sorted((func.__kwdefaults__ or {}).items())


def _is_runtime_object(value: Any) -> bool:
    return any(k.__name__ in _RUNTIME_TYPE_NAMES for k in type(value).__mro__)


def _impurity(value: Any) -> Optional[str]:
    """What makes capturing ``value`` impure, or ``None``.

    Modules and classes are names, not state.  A helper callable counts
    only through a runtime object it is bound to: ``owner =
    matrix.rank_of`` is the idiomatic pure distribution function.
    """
    if isinstance(value, type) or inspect.ismodule(value):
        return None
    if callable(value):
        value = getattr(value, "__self__", None)
        if not _is_runtime_object(value):
            return None
    if _is_runtime_object(value):
        return f"live runtime object ({type(value).__name__})"
    if isinstance(value, (dict, list, set, bytearray)) or any(
        callable(getattr(value, m, None)) for m in _DATA_METHODS
    ):
        return f"mutable data ({type(value).__name__})"
    return None


@lint_rule("TTG011")
def _impure_map_captures(ctx: LintContext) -> Iterator[Finding]:
    """Keymaps and priority maps that close over mutable or runtime state.

    The sender evaluates a keymap once per message and the owner rank
    travels with it (DESIGN §3.1 rule 1), which is only sound if every
    evaluation of the map agrees.  Cost maps are out of scope: their
    values never travel.
    """
    for tt in ctx.graph.tts:
        if ctx.waived(tt, "TTG011"):
            continue
        for role, fn in (("keymap", tt._keymap), ("priomap", tt._priomap)):
            if fn is None:
                continue
            for name, value in _map_captures(fn):
                why = _impurity(value)
                if why is not None:
                    yield ctx.finding(
                        "TTG011", f"{ctx.loc(tt)}.{role}",
                        f"captures {why} as {name!r}",
                    )
