"""TaskGraph and its executable binding to a backend.

A :class:`TaskGraph` is the *template* task graph: template tasks wired by
edges, possibly cyclic (Listing 1's graph has cycles; only the dynamically
unfolded DAG of task *instances* is acyclic).  ``graph.executable(backend)``
binds it to a runtime backend, after which seeds are injected via
``invoke`` and the computation is drained with ``fence``.

Message-to-task semantics (paper II): once every input terminal of a
template task has received one message with the same task ID (streaming
terminals: once their stream is complete), a task is created with the data
parts of those messages and scheduled on the rank given by the template's
keymap with the priority given by its priority map.

Binding compiles the template graph once (:meth:`Executable._compile`):
per output terminal, its consumers' routes; per template, its delivery.
A spawned task is one object (:class:`_Task`).
"""

from __future__ import annotations

import warnings
from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.edge import Edge
from repro.core.exceptions import (
    DeliveryError,
    GraphConstructionError,
    StreamError,
)
from repro.core.messaging import _CURRENT, TaskOutputs
from repro.core.task import TemplateTask, default_owner, keymap_out_of_range
from repro.core.terminals import InputTerminal, OutputTerminal
from repro.runtime.base import Backend
from repro.telemetry.events import INSTANT, TID_RT, Handles

#: Record heads (see ``EventBus.emit``) of the dependency instants, per
#: source rank: a memo of constants, shared by every run.  The task
#: labels ``src`` and ``dst`` are formatted from (template name, key) on
#: read; a message from outside any task body names ``"<external>"``.
_DEP_HEADS = Handles(lambda rank: (
    INSTANT, "dep", "dep", rank, TID_RT, "src[] dst[] edge"))
_EXT_DEP_HEADS = Handles(lambda rank: (
    INSTANT, "dep", "dep", rank, TID_RT, "src dst[] edge"))

_EMPTY = object()

# Construction observers: callables ``fn(kind, obj)`` invoked whenever a
# TaskGraph ("graph") or Executable ("executable") is created, so a caller
# can find every executable a script or cell builds without its
# cooperation: repro.durability.digest_trail, telemetry recording and the
# example lint test use it.
_CONSTRUCTION_OBSERVERS: List[Callable[[str, Any], None]] = []


def add_construction_observer(fn: Callable[[str, Any], None]) -> None:
    _CONSTRUCTION_OBSERVERS.append(fn)


def remove_construction_observer(fn: Callable[[str, Any], None]) -> None:
    _CONSTRUCTION_OBSERVERS.remove(fn)


def _notify_observers(kind: str, obj: Any) -> None:
    for fn in list(_CONSTRUCTION_OBSERVERS):
        fn(kind, obj)


class TaskGraph:
    """A collection of template tasks forming one flowgraph."""

    def __init__(self, tts: Sequence[TemplateTask], name: str = "ttg") -> None:
        if not tts:
            raise GraphConstructionError("a TaskGraph needs at least one template task")
        seen = set()
        for tt in tts:
            if tt.id in seen:
                raise GraphConstructionError(f"duplicate template task {tt.name}")
            seen.add(tt.id)
        self.tts: Tuple[TemplateTask, ...] = tuple(tts)
        self.name = name
        _notify_observers("graph", self)

    def edges(self) -> List[Edge]:
        """All distinct edges touched by this graph's terminals."""
        out: Dict[int, Edge] = {}
        for tt in self.tts:
            for t in list(tt.inputs) + list(tt.outputs):
                out[t.edge.id] = t.edge
        return list(out.values())

    def validate(self, nranks: Optional[int] = None) -> List[str]:
        """Wiring diagnostics as human-readable strings.

        Thin wrapper over the :mod:`repro.analysis` linter (the single
        source of truth for graph diagnostics); each string starts with
        the rule id, e.g. ``"TTG001 [info] g/T.in0: edge 'unfed' ..."``.
        """
        from repro.analysis.lint import lint_graph

        return [str(f) for f in lint_graph(self, nranks=nranks)]

    def to_dot(self) -> str:
        """Graphviz rendering of the template graph (for docs/examples)."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for tt in self.tts:
            lines.append(f'  "{tt.name}" [shape=box];')
        for tt in self.tts:
            for t in tt.outputs:
                for ref, _ in t.edge.consumers:
                    ctt = ref()
                    if ctt is None:
                        continue
                    label = t.edge.name
                    lines.append(f'  "{tt.name}" -> "{ctt.name}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def executable(
        self, backend: Backend, *, strict: bool = False,
        sanitize: bool = False,
    ) -> "Executable":
        """Bind this template graph to a backend (make_graph_executable).

        ``strict=True`` raises on any error-severity lint finding and
        arms the runtime sanitizer in raising mode; ``sanitize=True``
        arms the sanitizer in collect-and-warn mode, race checks
        included.
        """
        return Executable(self, backend, strict=strict, sanitize=sanitize)


class _Pending:
    """Accumulating inputs of one not-yet-ready instance on the generic
    path (:meth:`Executable._deliver`)."""

    __slots__ = ("slots", "counts", "expected")

    def __init__(self, tt: TemplateTask) -> None:
        n = tt.num_inputs
        self.slots: List[Any] = [_EMPTY] * n
        self.counts: List[int] = [0] * n
        # Only stream control rewrites an instance's row, so instances of
        # single-message templates share the template's.
        self.expected: List[Optional[int]] = (
            list(tt.expected_row) if tt.streams else tt.expected_row)


class Executable:
    """A TaskGraph bound to a backend: delivery, instantiation, execution.

    Construction lints the graph (see :mod:`repro.analysis`): in strict
    mode any error-severity finding raises :class:`GraphConstructionError`
    carrying the rule id; by default errors are emitted as warnings and
    execution proceeds (preserving historical behaviour).  All findings
    are kept on :attr:`findings`.  ``strict``/``sanitize`` also arm the
    runtime sanitizer (:class:`repro.analysis.sanitizer.Sanitizer`),
    exposed as :attr:`sanitizer`.  Construction ends by compiling the
    delivery (:meth:`_compile`).
    """

    def __init__(
        self,
        graph: TaskGraph,
        backend: Backend,
        *,
        strict: bool = False,
        sanitize: bool = False,
    ) -> None:
        self.graph = graph
        self.backend = backend
        self.nranks = backend.nranks
        self._pending: Dict[Tuple[int, Any], _Pending] = {}
        # Per counted template: task ID -> [slot, ..., inputs missing].
        self._counted: Dict[int, Dict[Any, List[Any]]] = {}
        self.task_counts: Counter = Counter()
        self._tt_ids = {tt.id for tt in graph.tts}
        self._routes: Optional[Dict[OutputTerminal, List[tuple]]] = None
        self.sanitizer = None
        if strict or sanitize:
            from repro.analysis.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(self, strict=strict)
            backend.sanitizer = self.sanitizer
        from repro.analysis.lint import lint_graph

        self.findings = lint_graph(graph, nranks=backend.nranks)
        errors = [f for f in self.findings if f.rule.severity == "error"]
        if errors:
            if strict:
                raise GraphConstructionError(
                    f"strict lint failed with {len(errors)} error(s): "
                    + "; ".join(str(f) for f in errors),
                    rule=errors[0].rule.id,
                )
            for f in errors:
                warnings.warn(f"TTG lint: {f}", RuntimeWarning, stacklevel=3)
        _notify_observers("executable", self)
        self._compile()

    @classmethod
    def make(
        cls,
        graph: TaskGraph,
        backend: Backend,
        *,
        strict: bool = False,
        sanitize: bool = False,
    ) -> "Executable":
        """Bind ``graph`` to ``backend`` (``make_graph_executable``).

        ``Executable.make(graph, backend, strict=True)`` is the verified
        entry point: the linter raises on error findings and the runtime
        sanitizer raises at the first detected fault, races included.
        """
        return cls(graph, backend, strict=strict, sanitize=sanitize)

    # ------------------------------------------------------------- binding

    def _compile(self) -> None:
        """Build each output terminal's routes ``(consumer, index, keymap,
        deliver, tag)`` and the delivery of every template they reach.

        Runs last in binding, after the construction observers (which may
        attach telemetry), and at the next entry point once :meth:`fence`
        or a changed map dropped the tables.  An armed sanitizer or a
        recording bus selects the observed variant here, once, so the
        plain path tests for neither on any message.
        """
        backend = self.backend
        tel = backend.telemetry
        recording = tel is not None and tel.bus.recording
        self._observed = recording or self.sanitizer is not None
        # The recording bus's per-rank logs, for the dependency instants.
        self._logs = tel.bus.logs if recording else None  # type: ignore[union-attr]
        tts = list(self.graph.tts)
        delivers: Dict[TemplateTask, Deliver] = {}
        consumers: Dict[OutputTerminal, List[Tuple[TemplateTask, int]]] = {}
        for tt in tts:  # grows by the live consumers outside the graph
            delivers[tt] = self._delivery(tt)
            tt._bindings.add(self)
            for term in tt.outputs:
                consumers[term] = [(ctt, i) for ref, i in term.edge.consumers
                                   if (ctt := ref()) is not None]
                for ctt, _ in consumers[term]:
                    if ctt not in delivers and ctt not in tts:
                        tts.append(ctt)
        owner = partial(default_owner, nranks=self.nranks)
        self._routes = {
            term: [(ctt, cidx, owner if ctt._keymap is None else ctt._keymap,
                    delivers[ctt],
                    f"{tt.name}->{ctt.name}" if recording else "data")
                   for ctt, cidx in consumers[term]]
            for tt in tts for term in tt.outputs}
        self._delivers = delivers
        if self._observed:
            self.send_from = self._send_observed  # type: ignore[method-assign]
        if not recording:
            backend.unrecorded_bindings += 1

    def _unbind(self) -> None:
        """Drop the compiled tables: their closures hold the executable in
        reference cycles, which :meth:`fence` breaks."""
        if self._routes is None:
            return
        for tt in self._delivers:
            tt._bindings.discard(self)
        if self._observed:
            del self.send_from
        if self._logs is None:
            self.backend.unrecorded_bindings -= 1
        self._routes = self._delivers = None

    def _template_changed(self, tt: TemplateTask) -> None:
        """``tt``'s keymap, priority map, cost map or reducer changed: its
        compiled delivery is stale, so drop the tables (the next entry
        point compiles them afresh).  A running graph refuses the change."""
        engine = self.backend.engine
        if engine._running or not engine.empty():
            raise GraphConstructionError(
                f"{tt.name} changed while {self.graph.name!r} is running: "
                "set maps and reducers before invoke or after fence")
        self._unbind()

    def _delivery(self, tt: TemplateTask) -> Deliver:
        """``tt``'s ``deliver(idx, key, rank, value=None)``: the generic
        :meth:`_deliver` for a streaming template or under the sanitizer,
        else a readiness count that spawns the instance when its last
        input arrives, with the template's cost map, priority map and the
        owner pool's hand-off bound."""
        if tt.streams or self.sanitizer is not None:
            return partial(self._deliver, tt)
        n = tt.num_inputs
        pending = self._counted.setdefault(tt.id, {})
        fresh = [_EMPTY] * n + [n]
        inputs, name = tt.inputs, tt.name
        cost, priomap = tt._cost, tt._priomap
        task_counts, pools, ex = self.task_counts, self.backend.pools, self

        def deliver(idx: int, key: Any, rank: int, value: Any = None) -> None:
            if n == 1:
                args: Tuple[Any, ...] = (value,)
            else:
                p = pending.get(key)
                if p is None:
                    p = pending[key] = fresh[:]
                elif p[idx] is not _EMPTY:
                    raise DeliveryError(f"duplicate input for {name}"
                                        f"[{key!r}].{inputs[idx].name}")
                p[idx] = value
                missing = p[n] - 1
                if missing:
                    p[n] = missing
                    return
                del pending[key]
                p.pop()
                args = tuple(p)
            if cost is None:
                flops = bytes_moved = 0.0
            else:
                out = cost(key, *args)
                if isinstance(out, tuple):
                    flops, bytes_moved = float(out[0]), float(out[1])
                else:
                    flops, bytes_moved = float(out), 0.0
            task_counts[name] += 1
            priority = 0 if priomap is None else priomap(key)
            pools[rank].push(_Task(ex, tt, rank, key, args, flops,
                                   bytes_moved, priority), priority)

        return deliver

    # ------------------------------------------------------------- seeding

    def invoke(self, tt: TemplateTask, key: Any = None, args: Sequence[Any] = ()) -> None:
        """Create a task instance directly with all its inputs
        (``ttg::invoke``): the entry point for INITIATOR-style templates."""
        self._check_tt(tt)
        if len(args) != tt.num_inputs:
            raise DeliveryError(
                f"invoke({tt.name}) needs {tt.num_inputs} args, got {len(args)}"
            )
        self._spawn(tt, key, args)

    def inject(
        self, tt: TemplateTask, which: Union[int, str], key: Any, value: Any = None
    ) -> None:
        """Deliver one message into an input terminal from *outside* the
        graph (external data injection, cf. the paper's future-work item on
        simplifying data injection).  Charged as a local post on the owner
        rank; unlike :meth:`invoke` it participates in normal terminal
        matching, so the task still waits for its other inputs."""
        self._check_tt(tt)
        term = tt.in_terminal(which)
        if self.sanitizer is not None:
            self.sanitizer.on_route(tt, term.index, key, value, "value",
                                    provenance="<inject>")
        tel = self.backend.telemetry
        if tel is not None and tel.bus.recording:
            now = self.backend.engine.now
            tel.bus.emit((_EXT_DEP_HEADS[0], now, now, None, "<external>",
                          tt.name, key, term.edge.name))
        dst = tt.keymap(key, self.nranks)
        self.backend.post_local(self._delivers[tt], term.index, key, dst,
                                value)

    def fence(self) -> float:
        """Drain all tasks and messages; returns the makespan.  An armed
        sanitizer then reports what termination left behind, and races.
        The compiled tables are dropped (the next entry point compiles
        them afresh), so a finished executable is freed by reference
        counting."""
        try:
            makespan = self.backend.run()
        finally:
            self._unbind()
        if self.sanitizer is not None:
            self.sanitizer.on_shutdown()
        return makespan

    # ------------------------------------------------------------ delivery

    def _check_tt(self, tt: TemplateTask) -> None:
        """An entry point's template must be in the graph (and it compiles
        the tables if need be)."""
        if tt.id not in self._tt_ids:
            raise DeliveryError(f"template task {tt.name} is not part of this graph")
        if self._routes is None:
            self._compile()

    def send_from(
        self,
        src_rank: int,
        term: OutputTerminal,
        key: Any,
        value: Any,
        mode: str = "value",
    ) -> None:
        """Route one message from an output terminal to every consumer."""
        edge = term.edge
        # Typed edges only, and the call only when the plain isinstance does
        # not already pass (a Void part never does: the check decides).
        kt, vt = edge.key_type, edge.value_type
        if kt is not None and not isinstance(key, kt):
            edge.check_key(key)
        if vt is not None and not isinstance(value, vt):
            edge.check_value(value)
        routes = self._routes[term]  # type: ignore[index]
        if not routes:
            raise DeliveryError(
                f"send on terminal {term.tt().name}.{term.name}: edge "
                f"{edge.name!r} has no consumers"
            )
        backend = self.backend
        nranks = self.nranks
        for ctt, cidx, km, deliver, tag in routes:
            # The one keymap evaluation of this message, range-checked
            # here (TTG006): the owner rank rides along to the delivery.
            dst = km(key)
            if not 0 <= dst < nranks:
                raise keymap_out_of_range(ctt, key, dst, nranks)
            if dst == src_rank:
                backend.stats.local_deliveries += 1
                v2, delay = backend.maybe_copy_local(value, mode)
                engine = backend.engine
                engine.schedule_at(engine.now + delay, deliver, cidx, key, dst,
                                   v2)
            elif value is None:
                backend.send_control(src_rank, dst,
                                     partial(deliver, cidx, key, dst))
            else:
                backend.send_value(src_rank, dst, value,
                                   partial(deliver, cidx, key, dst), tag=tag)

    def _send_observed(self, src_rank: int, term: OutputTerminal, key: Any,
                       value: Any, mode: str = "value") -> None:
        """:meth:`send_from` of the observed variant: the armed sanitizer
        and the recording bus see each route of a well-typed message
        before it is taken (the sanitizer keys its state by the key, so an
        ill-typed one must fail the edge's check first)."""
        edge = term.edge
        kt, vt = edge.key_type, edge.value_type
        if kt is not None and not isinstance(key, kt):
            edge.check_key(key)
        if vt is not None and not isinstance(value, vt):
            edge.check_value(value)
        sanitizer, logs = self.sanitizer, self._logs
        if logs is not None:
            log, head = logs[src_rank], self._dep_head(src_rank)
        for ctt, cidx, _, _, _ in self._routes[term]:  # type: ignore[index]
            if sanitizer is not None:
                sanitizer.on_route(ctt, cidx, key, value, mode)
            if logs is not None:
                log.extend(head + (ctt.name, key, edge.name))
        Executable.send_from(self, src_rank, term, key, value, mode)

    def _dep_head(self, rank: int) -> tuple:
        """The leading part of a dependency instant from ``rank`` now: the
        source task as (name, key), formatted on read."""
        now = self.backend.engine.now
        if _CURRENT:
            src = _CURRENT[-1]
            return (_DEP_HEADS[rank], now, now, None, src._tt.name, src.key)
        return (_EXT_DEP_HEADS[rank], now, now, None, "<external>")

    def broadcast_from(
        self,
        src_rank: int,
        spec: Sequence[Tuple[OutputTerminal, List[Any]]],
        value: Any,
        mode: str = "value",
    ) -> None:
        """Optimized broadcast: one payload transfer per destination rank
        covering all (terminal, key) targets; 'naive' config degrades to
        per-key sends (the pre-optimization behaviour, for ablations)."""
        backend = self.backend
        backend.stats.broadcasts += 1
        if backend.config.broadcast == "naive":
            for term, keys in spec:
                for k in keys:
                    self.send_from(src_rank, term, k, value, mode)
            return
        nranks = self.nranks
        per_rank: Dict[int, List[Tuple[Deliver, int, Any]]] = {}
        for term, keys in spec:
            edge = term.edge
            routes = self._routes[term]  # type: ignore[index]
            if not routes:
                raise DeliveryError(
                    f"broadcast on terminal {term.tt().name}.{term.name}: edge "
                    f"{edge.name!r} has no consumers"
                )
            kt, vt = edge.key_type, edge.value_type
            if vt is not None and not isinstance(value, vt):
                edge.check_value(value)
            for k in keys:
                if kt is not None and not isinstance(k, kt):
                    edge.check_key(k)
                for ctt, cidx, km, deliver, _ in routes:
                    # The targets of one destination share its rank, which
                    # rides along on the batch / the _deliver_all call.
                    dst = km(k)
                    if not 0 <= dst < nranks:
                        raise keymap_out_of_range(ctt, k, dst, nranks)
                    per_rank.setdefault(dst, []).append((deliver, cidx, k))
        if self._observed:
            self._observe_broadcast(src_rank, spec, value, mode)
        packed = None  # the value, serialized once for every remote rank
        for dst in sorted(per_rank):
            targets = per_rank[dst]
            backend.stats.broadcast_keys_covered += len(targets)
            if dst == src_rank:
                backend.stats.local_deliveries += len(targets)
                v2, delay = backend.maybe_copy_local(value, mode)
                # One heap entry for the whole same-timestamp fan-out.
                backend.engine.schedule_batch(
                    delay, [(deliver, (cidx, k, dst, v2))
                            for deliver, cidx, k in targets])
            else:
                backend.stats.broadcast_payloads_sent += 1
                if value is None:
                    backend.send_control(
                        src_rank, dst, partial(_deliver_all, targets, dst),
                        nbytes=64 + 16 * len(targets)
                    )
                else:
                    if packed is None:
                        packed = backend.serialize(value)
                    backend.send_value(
                        src_rank,
                        dst,
                        value,
                        partial(_deliver_all, targets, dst),
                        extra_bytes=16 * len(targets),
                        tag="bcast",
                        packed=packed,
                    )

    def _observe_broadcast(
        self,
        src_rank: int,
        spec: Sequence[Tuple[OutputTerminal, List[Any]]],
        value: Any,
        mode: str,
    ) -> None:
        """Show a routed broadcast to the armed sanitizer and the recording
        bus, before anything is sent.  The dependency instants of the whole
        fan-out are one entry (one per key while the sanitizer may record
        a finding in between)."""
        sanitizer = self.sanitizer
        deps = None
        if self._logs is not None:
            deps = self.backend.telemetry.bus.batch(  # type: ignore[union-attr]
                self._dep_head(src_rank), 3, expand=sanitizer is not None)
        for term, keys in spec:
            ename, routes = term.edge.name, self._routes[term]  # type: ignore[index]
            for k in keys:
                for ctt, cidx, _, _, _ in routes:
                    if sanitizer is not None:
                        sanitizer.on_route(ctt, cidx, k, value, mode)
                    if deps is not None:
                        deps.extend((ctt.name, k, ename))

    def _deliver(self, tt: TemplateTask, idx: int, key: Any, rank: int,
                 value: Any = None) -> None:
        """The generic terminal logic at the owner rank: accumulate, fire
        when ready (the compiled delivery of a template with a streaming
        input, or of any template under the sanitizer).

        ``rank`` is the owner rank the sender's keymap evaluation gave
        (keymaps are pure, TTG011).
        """
        if self.sanitizer is not None:
            self.sanitizer.on_deliver(tt, idx, key, value, rank)
        pkey = (tt.id, key)
        p = self._pending.get(pkey)
        if p is None:
            p = self._pending[pkey] = _Pending(tt)
        term = tt.inputs[idx]
        if term.is_streaming:
            if p.slots[idx] is _EMPTY:
                p.slots[idx] = value
            else:
                p.slots[idx] = term.reducer(p.slots[idx], value)
            p.counts[idx] += 1
            exp = p.expected[idx]
            if exp is not None and p.counts[idx] > exp:
                raise StreamError(
                    f"{tt.name}[{key!r}].{term.name}: stream overflow "
                    f"({p.counts[idx]} > expected {exp})"
                )
        else:
            if p.slots[idx] is not _EMPTY:
                raise DeliveryError(
                    f"duplicate input for {tt.name}[{key!r}].{term.name}"
                )
            p.slots[idx] = value
            p.counts[idx] = 1
        self._maybe_fire(tt, key, p, rank)

    def _maybe_fire(self, tt: TemplateTask, key: Any, p: _Pending,
                    rank: Optional[int] = None) -> None:
        """Fire a pending instance once every input is satisfied (list
        equality of counts and sizes).  Stream control passes no ``rank``."""
        if p.counts != p.expected:
            return
        del self._pending[(tt.id, key)]
        self._spawn(tt, key, [None if s is _EMPTY else s for s in p.slots],
                    rank)

    def _spawn(self, tt: TemplateTask, key: Any, args: Sequence[Any],
               rank: Optional[int] = None) -> None:
        """Create the task instance and hand it to its owner rank's pool
        (``None``: not yet known -- :meth:`invoke` and stream control --
        so the keymap is asked here): the generic counterpart of the
        spawn a compiled counted delivery does itself."""
        if rank is None:
            rank = tt.keymap(key, self.nranks)
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_spawn(tt, key, args)
        args = tuple(args)
        flops, bytes_moved = tt.cost(key, args)
        self.task_counts[tt.name] += 1
        priority = tt.priority(key)
        task = (_Task if sanitizer is None else _SanitizedTask)(
            self, tt, rank, key, args, flops, bytes_moved, priority)
        self.backend.pools[rank].push(task, priority)

    # ------------------------------------------------------------- streams

    def _stream(self, tt: TemplateTask, which: Union[int, str], key: Any,
                kind: str) -> Tuple[InputTerminal, _Pending]:
        """The streaming terminal and pending instance stream control
        ``kind`` addresses."""
        self._check_tt(tt)
        term = tt.in_terminal(which)
        if not term.is_streaming:
            raise StreamError(f"{tt.name}.{term.name} is not a streaming terminal")
        if self.sanitizer is not None:
            self.sanitizer.on_stream_control(tt, term, key, kind)
        pkey = (tt.id, key)
        p = self._pending.get(pkey)
        if p is None:
            p = self._pending[pkey] = _Pending(tt)
        return term, p

    def set_argstream_size(self, tt: TemplateTask, which: Union[int, str], key: Any, size: int) -> None:
        """Declare the bounded stream length for ``tt``'s streaming input
        ``which`` at task ID ``key`` (may arrive before or after data)."""
        if size < 0:
            raise StreamError("stream size must be >= 0")
        term, p = self._stream(tt, which, key, "set_argstream_size")
        cur = p.expected[term.index]
        if cur is not None and cur != size:
            raise StreamError(
                f"{tt.name}[{key!r}].{term.name}: conflicting stream sizes "
                f"{cur} vs {size}"
            )
        if p.counts[term.index] > size:
            raise StreamError(
                f"{tt.name}[{key!r}].{term.name}: already received "
                f"{p.counts[term.index]} > size {size}"
            )
        p.expected[term.index] = size
        self._maybe_fire(tt, key, p)

    def finalize_argstream(self, tt: TemplateTask, which: Union[int, str], key: Any) -> None:
        """Close the stream: its length becomes the count received so far."""
        term, p = self._stream(tt, which, key, "finalize")
        p.expected[term.index] = p.counts[term.index]
        self._maybe_fire(tt, key, p)

    def set_stream_size_via(
        self, src_rank: int, term: OutputTerminal, key: Any, size: int
    ) -> None:
        """Stream-size control routed through an *output* terminal: applies
        to every consumer of its edge, with a control message if remote."""
        self._control_via(src_rank, term, key, self.set_argstream_size, size)

    def finalize_stream_via(self, src_rank: int, term: OutputTerminal, key: Any) -> None:
        self._control_via(src_rank, term, key, self.finalize_argstream)

    def _control_via(self, src_rank: int, term: OutputTerminal, key: Any,
                     control: Callable[..., None], *args: Any) -> None:
        for ref, cidx in term.edge.consumers:
            ctt = ref()
            if ctt is None:
                continue
            dst = ctt.keymap(key, self.nranks)
            if dst == src_rank:
                self.backend.post_local(control, ctt, cidx, key, *args)
            else:
                self.backend.send_control(
                    src_rank, dst, partial(control, ctt, cidx, key, *args))

    # -------------------------------------------------------------- status

    @property
    def pending_instances(self) -> int:
        """Task instances waiting for inputs right now."""
        return len(self._pending) + sum(map(len, self._counted.values()))


#: A compiled delivery, ``deliver(idx, key, rank, value=None)``; a remote
#: message carries ``partial(deliver, idx, key, rank)``.
Deliver = Callable[..., None]


def _deliver_all(targets: List[Tuple[Deliver, int, Any]], rank: int,
                 value: Any = None) -> None:
    """Arrival of one broadcast at ``rank``, covering all its targets
    there: called with no value for a control broadcast."""
    for deliver, idx, key in targets:
        deliver(idx, key, rank, value)


class _Task(TaskOutputs):
    """One spawned task instance: the outputs handle its body receives,
    its bound inputs and the fields :class:`~repro.runtime.base.WorkerPool`
    reads."""

    __slots__ = ("args", "flops", "bytes_moved", "priority", "name")

    def __init__(self, ex: Executable, tt: TemplateTask, rank: int, key: Any,
                 args: Tuple[Any, ...], flops: float, bytes_moved: float,
                 priority: int) -> None:
        self._ex, self._tt, self.rank, self.key = ex, tt, rank, key
        self.args, self.flops, self.bytes_moved = args, flops, bytes_moved
        self.priority, self.name = priority, tt.name

    def run(self) -> None:
        _CURRENT.append(self)
        try:
            self._tt.fn(self.key, *self.args, self)
        finally:
            _CURRENT.pop()


class _SanitizedTask(_Task):
    """A task whose body is bracketed by the armed sanitizer's hooks (it
    takes its rank's clock as it begins)."""

    __slots__ = ()

    def run(self) -> None:
        sanitizer = self._ex.sanitizer
        sanitizer.on_body(self._tt, self.key, self.rank, self.args)
        try:
            _Task.run(self)
        finally:
            sanitizer.on_body_end()
