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
        # Per template: (which inputs stream, a fresh entry, the store of
        # task ID -> entry) -- see _delivery for an entry's layout.
        self._pending: Dict[TemplateTask, Tuple[Tuple[bool, ...], List[Any],
                                                 Dict[Any, List[Any]]]] = {}
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
        attach telemetry or arm a sanitizer), and at the next entry point
        once :meth:`fence` or a changed map dropped the tables.  An armed
        sanitizer or a recording bus selects the observed variant here,
        once, so the plain path tests for neither on any message: the
        sanitizer wraps each delivery with ``on_deliver`` and its tasks
        are :class:`_SanitizedTask`.
        """
        backend = self.backend
        tel = backend.telemetry
        recording = tel is not None and tel.bus.recording
        sanitizer = self.sanitizer
        self._observed = recording or sanitizer is not None
        # The recording bus's per-rank logs, for the dependency instants.
        self._logs = tel.bus.logs if recording else None  # type: ignore[union-attr]
        tts = list(self.graph.tts)
        delivers: Dict[TemplateTask, Deliver] = {}
        consumers: Dict[OutputTerminal, List[Tuple[TemplateTask, int]]] = {}
        for tt in tts:  # grows by the live consumers outside the graph
            deliver = self._delivery(tt)
            delivers[tt] = deliver if sanitizer is None else partial(
                _sanitized, sanitizer.on_deliver, tt, deliver)
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
        reference cycles, which :meth:`fence` breaks.  The pending stores
        hold no closure, and stay."""
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
        """``tt``'s compiled ``deliver(idx, key, rank, value=None)``: a
        readiness count over ``tt``'s one pending store, then the spawn,
        with the cost map, priority map and pool hand-off bound.
        ``deliver(None, key, rank, args)`` spawns at once (:meth:`invoke`,
        stream control).  An entry is ``[slot, ..., inputs missing]`` (a
        stream's slot: the reducer's accumulator), then, if any input
        streams, each input's count and expected count (None: unsized).
        """
        inputs, name, n = tt.inputs, tt.name, tt.num_inputs
        streams = tuple([t.is_streaming for t in inputs])
        was, _, pending = self._pending.get(tt, (streams, [], {}))
        if was != streams:  # reducers were set since these entries began
            for p in pending.values():
                _restream(p, inputs, was)
        fresh = [_EMPTY] * n + [n]
        if True in streams:
            fresh += [0] * n + [t.static_stream_size if t.is_streaming else 1
                                for t in inputs]
        self._pending[tt] = streams, fresh, pending
        single = streams == (False,)
        reducers = [t.reducer for t in inputs]
        cost, priomap = tt._cost, tt._priomap
        task_counts, pools, ex = self.task_counts, self.backend.pools, self
        task = _Task if self.sanitizer is None else _SanitizedTask

        def deliver(idx: Optional[int], key: Any, rank: int,
                    value: Any = None) -> None:
            if idx is None:
                args: Tuple[Any, ...] = value
            elif single:
                args = (value,)
            else:
                p = pending.get(key)
                if p is None:
                    p = pending[key] = fresh[:]
                reducer = reducers[idx]
                if reducer is None:
                    if p[idx] is not _EMPTY:
                        raise DeliveryError(f"duplicate input for {name}"
                                            f"[{key!r}].{inputs[idx].name}")
                    p[idx] = value
                else:
                    p[idx] = value if p[idx] is _EMPTY else reducer(p[idx], value)
                    i = n + 1 + idx
                    count = p[i] = p[i] + 1
                    size = p[i + n]
                    if count != size:
                        if size is not None and count > size:
                            raise StreamError(
                                f"{name}[{key!r}].{inputs[idx].name}: stream "
                                f"overflow ({count} > expected {size})")
                        return
                missing = p[n] - 1
                if missing:
                    p[n] = missing
                    return
                del pending[key]
                del p[n:]
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
            pools[rank].push(task(ex, tt, rank, key, args, flops,
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
        self._delivers[tt](None, key, tt.keymap(key, self.nranks), tuple(args))

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

    # ------------------------------------------------------------- streams

    def set_argstream_size(self, tt: TemplateTask, which: Union[int, str], key: Any,
                           size: Optional[int]) -> None:
        """Declare the bounded stream length for ``tt``'s streaming input
        ``which`` at task ID ``key`` (may arrive before or after data; None
        finalizes) on its pending entry, and spawn the instance on its
        owner rank if that completes it."""
        self._check_tt(tt)
        term = tt.in_terminal(which)
        if not term.is_streaming:
            raise StreamError(f"{tt.name}.{term.name} is not a streaming terminal")
        if self.sanitizer is not None:
            self.sanitizer.on_stream_control(
                tt, term, key, "finalize" if size is None else "set_argstream_size")
        _, fresh, pending = self._pending[tt]
        p = pending.setdefault(key, fresh[:])
        n, idx = tt.num_inputs, term.index
        count, cur = p[n + 1 + idx], p[2 * n + 1 + idx]
        if size is None:
            size = count
        elif cur not in (None, size) or count > size:
            raise StreamError(
                f"{tt.name}[{key!r}].{term.name}: stream size {size} conflicts "
                f"with the expected {cur} or the {count} received")
        p[2 * n + 1 + idx] = size
        if count != size or cur == count:  # not complete, or already was
            return
        if p[idx] is _EMPTY:  # an empty stream's argument is None
            p[idx] = None
        p[n] -= 1
        if p[n]:
            return
        del pending[key]
        del p[n:]
        self._delivers[tt](None, key, tt.keymap(key, self.nranks), tuple(p))

    def finalize_argstream(self, tt: TemplateTask, which: Union[int, str], key: Any) -> None:
        """Close the stream: its length becomes the count received so far."""
        self.set_argstream_size(tt, which, key, None)

    def size_stream_via(self, src_rank: int, term: OutputTerminal, key: Any,
                        size: Optional[int] = None) -> None:
        """Stream control routed through an *output* terminal: the stream
        size (None finalizes) of every consumer of its edge at ``key``,
        with a control message if remote."""
        for ctt, cidx, _, _, _ in self._routes[term]:  # type: ignore[index]
            dst = ctt.keymap(key, self.nranks)
            control = partial(self.set_argstream_size, ctt, cidx, key, size)
            if dst == src_rank:
                self.backend.post_local(control)
            else:
                self.backend.send_control(src_rank, dst, control)

    # -------------------------------------------------------------- status

    @property
    def pending_instances(self) -> int:
        """Task instances waiting for inputs right now."""
        return sum(len(pending) for _, _, pending in self._pending.values())

    def waiting(self) -> List[Tuple[TemplateTask, Any,
                                    List[Tuple[InputTerminal, int, Optional[int]]]]]:
        """Each instance waiting for inputs: its template, its task ID and,
        per input terminal, the messages received and expected (None: a
        stream not yet sized)."""
        out = []
        for tt, (streams, _, pending) in self._pending.items():
            n = tt.num_inputs
            out += [(tt, key, [(t, p[n + 1 + i], p[2 * n + 1 + i]) if streams[i]
                               else (t, int(p[i] is not _EMPTY), 1)
                               for i, t in enumerate(tt.inputs)])
                    for key, p in pending.items()]
        return out


#: A compiled delivery, ``deliver(idx, key, rank, value=None)``; a remote
#: message carries ``partial(deliver, idx, key, rank)``, and
#: ``deliver(None, key, rank, args)`` spawns the instance.
Deliver = Callable[..., None]


def _sanitized(on_deliver: Callable[..., None], tt: TemplateTask,
               deliver: Deliver, idx: Optional[int], key: Any, rank: int,
               value: Any = None) -> None:
    """``deliver`` under the armed sanitizer, which sees each message (not
    a spawn) first."""
    if idx is not None:
        on_deliver(tt, idx, key, value, rank)
    deliver(idx, key, rank, value)


def _restream(p: List[Any], inputs: Sequence[InputTerminal],
              was: Tuple[bool, ...]) -> None:
    """Bring the entry ``p``, begun while ``was[i]`` told whether input
    ``i`` streamed, up to date with the reducers set since."""
    n = len(inputs)
    if True not in was:
        p += [0] * n + [1] * n
    for i, t in enumerate(inputs):
        if t.is_streaming and not was[i]:
            p[n + 1 + i] = filled = int(p[i] is not _EMPTY)
            p[2 * n + 1 + i] = size = t.static_stream_size
            if filled and size != 1:  # the slot is complete no more
                p[n] += 1


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
    """A task whose spawn the armed sanitizer sees, and whose body its
    hooks bracket (it takes its rank's clock as it begins)."""

    __slots__ = ()

    def __init__(self, ex: Executable, tt: TemplateTask, rank: int, key: Any,
                 args: Tuple[Any, ...], *rest: Any) -> None:
        ex.sanitizer.on_spawn(tt, key, args)
        _Task.__init__(self, ex, tt, rank, key, args, *rest)

    def run(self) -> None:
        sanitizer = self._ex.sanitizer
        sanitizer.on_body(self._tt, self.key, self.rank, self.args)
        try:
            _Task.run(self)
        finally:
            sanitizer.on_body_end()
