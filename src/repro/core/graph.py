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
"""

from __future__ import annotations

import warnings
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.edge import Edge
from repro.core.exceptions import (
    DeliveryError,
    GraphConstructionError,
    StreamError,
)
from repro.core.messaging import _CURRENT, TaskOutputs, current_task_label
from repro.core.task import TemplateTask, default_owner, keymap_out_of_range
from repro.core.terminals import OutputTerminal
from repro.runtime.base import Backend
from repro.telemetry.events import INSTANT, TID_RT, Handles

#: Record heads (see ``EventBus.emit``) of the dependency instants, per
#: source rank: a memo of constants, shared by every run.  The consumer
#: label ``dst`` is formatted from (template name, key) on read.
_DEP_HEADS = Handles(lambda rank: (
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
                for ctt, cidx in t.edge.consumers:
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
    """Accumulating inputs of one not-yet-ready task instance.

    ``missing`` is the readiness counter of templates whose inputs all
    take a single message (``not tt.streams``): the number of inputs still
    empty; the instance fires when it reaches zero.  Templates with a
    streaming input compare ``counts`` with ``expected`` instead.
    """

    __slots__ = ("slots", "counts", "expected", "missing")

    def __init__(self, tt: TemplateTask) -> None:
        n = tt.num_inputs
        self.slots: List[Any] = [_EMPTY] * n
        self.counts: List[int] = [0] * n
        # Only stream control rewrites an instance's row, so instances of
        # single-message templates share the template's.
        self.expected: List[Optional[int]] = (
            list(tt.expected_row) if tt.streams else tt.expected_row)
        self.missing = n


class Executable:
    """A TaskGraph bound to a backend: delivery, instantiation, execution.

    Construction lints the graph (see :mod:`repro.analysis`): in strict
    mode any error-severity finding raises :class:`GraphConstructionError`
    carrying the rule id; by default errors are emitted as warnings and
    execution proceeds (preserving historical behaviour).  All findings
    are kept on :attr:`findings`.  ``strict``/``sanitize`` also arm the
    runtime sanitizer (:class:`repro.analysis.sanitizer.Sanitizer`),
    exposed as :attr:`sanitizer`.
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
        self.task_counts: Counter = Counter()
        self._tt_ids = {tt.id for tt in graph.tts}
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
            tel.bus.emit((_DEP_HEADS[0], now, now, None, "<external>",
                          tt.name, key, term.edge.name))
        nranks = self.nranks
        km = tt._keymap
        dst = default_owner(key, nranks) if km is None else km(key)
        if not 0 <= dst < nranks:
            raise keymap_out_of_range(tt, key, dst, nranks)
        self.backend.post_local(self._deliver, tt, term.index, key, value, dst)

    def fence(self) -> float:
        """Drain all tasks and messages; returns the makespan.  An armed
        sanitizer then reports what termination left behind, and races."""
        makespan = self.backend.run()
        if self.sanitizer is not None:
            self.sanitizer.on_shutdown()
        return makespan

    # ------------------------------------------------------------ delivery

    def _check_tt(self, tt: TemplateTask) -> None:
        if tt.id not in self._tt_ids:
            raise DeliveryError(f"template task {tt.name} is not part of this graph")

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
        if not edge.consumers:
            raise DeliveryError(
                f"send on terminal {term.tt.name}.{term.name}: edge "
                f"{edge.name!r} has no consumers"
            )
        backend = self.backend
        sanitizer = self.sanitizer
        nranks = self.nranks
        tel = backend.telemetry
        bus = tel.bus if tel is not None and tel.bus.recording else None
        if bus is not None:
            src, now = current_task_label(), backend.engine.now
            dep_head = _DEP_HEADS[src_rank]
        # Message tags are only ever read by a recording bus.
        tagged = bus is not None
        for ctt, cidx in edge.consumers:
            if sanitizer is not None:
                sanitizer.on_route(ctt, cidx, key, value, mode)
            if bus is not None:
                bus.emit((dep_head, now, now, None, src, ctt.name, key,
                          edge.name))
            # The one keymap evaluation of this message, range-checked
            # here (TTG006): the owner rank rides along to _deliver/_spawn.
            km = ctt._keymap
            dst = default_owner(key, nranks) if km is None else km(key)
            if not 0 <= dst < nranks:
                raise keymap_out_of_range(ctt, key, dst, nranks)
            if dst == src_rank:
                backend.stats.local_deliveries += 1
                v2, delay = backend.maybe_copy_local(value, mode)
                backend.post_local(self._deliver, ctt, cidx, key, v2, dst,
                                   delay=delay)
            elif value is None:
                backend.send_control(
                    src_rank, dst, _Deliver1(self, ctt, cidx, key, dst)
                )
            else:
                backend.send_value(
                    src_rank,
                    dst,
                    value,
                    _DeliverV(self, ctt, cidx, key, dst),
                    tag=f"{term.tt.name}->{ctt.name}" if tagged else "data",
                )

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
        sanitizer = self.sanitizer
        tel = backend.telemetry
        bus = tel.bus if tel is not None and tel.bus.recording else None
        if bus is not None:
            now = backend.engine.now
            # The dep instants of the whole fan-out are one entry (one per
            # key while the sanitizer may record a finding in between).
            deps = bus.batch((_DEP_HEADS[src_rank], now, now, None,
                              current_task_label()), 3,
                             expand=sanitizer is not None)
        nranks = self.nranks
        per_rank: Dict[int, List[Tuple[TemplateTask, int, Any]]] = {}
        for term, keys in spec:
            edge = term.edge
            consumers = edge.consumers
            if not consumers:
                raise DeliveryError(
                    f"broadcast on terminal {term.tt.name}.{term.name}: edge "
                    f"{edge.name!r} has no consumers"
                )
            kt, vt = edge.key_type, edge.value_type
            if vt is not None and not isinstance(value, vt):
                edge.check_value(value)
            for k in keys:
                if kt is not None and not isinstance(k, kt):
                    edge.check_key(k)
                for ctt, cidx in consumers:
                    if sanitizer is not None:
                        sanitizer.on_route(ctt, cidx, k, value, mode)
                    if bus is not None:
                        deps.extend((ctt.name, k, edge.name))
                    # The targets of one destination share its rank, which
                    # rides along on the batch / the _DeliverN(V) record.
                    km = ctt._keymap
                    dst = default_owner(k, nranks) if km is None else km(k)
                    if not 0 <= dst < nranks:
                        raise keymap_out_of_range(ctt, k, dst, nranks)
                    per_rank.setdefault(dst, []).append((ctt, cidx, k))
        for dst in sorted(per_rank):
            targets = per_rank[dst]
            backend.stats.broadcast_keys_covered += len(targets)
            if dst == src_rank:
                backend.stats.local_deliveries += len(targets)
                v2, delay = backend.maybe_copy_local(value, mode)
                # One heap entry for the whole same-timestamp fan-out.
                backend.post_local_batch(
                    [(self._deliver, (ctt, cidx, k, v2, dst))
                     for ctt, cidx, k in targets],
                    delay=delay)
            else:
                backend.stats.broadcast_payloads_sent += 1
                if value is None:
                    backend.send_control(
                        src_rank, dst, _DeliverN(self, targets, dst),
                        nbytes=64 + 16 * len(targets)
                    )
                else:
                    backend.send_value(
                        src_rank,
                        dst,
                        value,
                        _DeliverNV(self, targets, dst),
                        extra_bytes=16 * len(targets),
                        tag="bcast",
                    )

    def _deliver(self, tt: TemplateTask, idx: int, key: Any, value: Any,
                 rank: int) -> None:
        """Terminal logic at the owner rank: accumulate, fire when ready.

        ``rank`` is the owner rank the sender's keymap evaluation gave
        (keymaps are pure, TTG011).
        """
        if self.sanitizer is not None:
            self.sanitizer.on_deliver(tt, idx, key, value, rank)
        # Without a streaming input every input takes exactly one message
        # and readiness is a count; a lone such input is ready at once.
        counted = not tt.streams
        if counted and tt.num_inputs == 1:
            self._spawn(tt, key, (value,), rank)
            return
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
            if counted:
                p.missing = missing = p.missing - 1
                if not missing:
                    del self._pending[pkey]
                    self._spawn(tt, key, p.slots, rank)
                return
        self._maybe_fire(tt, key, p, rank)

    def _maybe_fire(self, tt: TemplateTask, key: Any, p: _Pending,
                    rank: Optional[int] = None) -> None:
        """Fire an instance of a template with a streaming input once every
        input is satisfied: a count never equals an unset (``None``) size,
        so that is list equality.  Stream control passes no ``rank``."""
        if p.counts != p.expected:
            return
        del self._pending[(tt.id, key)]
        self._spawn(tt, key, [None if s is _EMPTY else s for s in p.slots],
                    rank)

    def _spawn(self, tt: TemplateTask, key: Any, args: Sequence[Any],
               rank: Optional[int] = None) -> None:
        """Create the task instance and submit it on its owner rank
        (``None``: not yet known -- :meth:`invoke` and stream control --
        so the keymap is asked here).  The template's maps are the user's
        callables, called directly."""
        if rank is None:
            nranks = self.nranks
            km = tt._keymap
            rank = default_owner(key, nranks) if km is None else km(key)
            if not 0 <= rank < nranks:
                raise keymap_out_of_range(tt, key, rank, nranks)
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_spawn(tt, key, args)
        args = tuple(args)
        cost = tt._cost
        if cost is None:
            flops = bytes_moved = 0.0
        else:
            out = cost(key, *args)
            if isinstance(out, tuple):
                flops, bytes_moved = float(out[0]), float(out[1])
            else:
                flops, bytes_moved = float(out), 0.0
        priomap = tt._priomap
        name = tt.name
        self.task_counts[name] += 1
        self.backend.submit(
            rank, (_RunBody if sanitizer is None else _SanitizedBody)(
                self, tt, rank, key, args), flops, bytes_moved,
            0 if priomap is None else priomap(key), name, key,
        )

    # ------------------------------------------------------------- streams

    def set_argstream_size(self, tt: TemplateTask, which: Union[int, str], key: Any, size: int) -> None:
        """Declare the bounded stream length for ``tt``'s streaming input
        ``which`` at task ID ``key`` (may arrive before or after data)."""
        self._check_tt(tt)
        term = tt.in_terminal(which)
        if not term.is_streaming:
            raise StreamError(f"{tt.name}.{term.name} is not a streaming terminal")
        if size < 0:
            raise StreamError("stream size must be >= 0")
        if self.sanitizer is not None:
            self.sanitizer.on_stream_control(tt, term, key, "set_argstream_size")
        pkey = (tt.id, key)
        p = self._pending.get(pkey)
        if p is None:
            p = self._pending[pkey] = _Pending(tt)
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
        self._check_tt(tt)
        term = tt.in_terminal(which)
        if not term.is_streaming:
            raise StreamError(f"{tt.name}.{term.name} is not a streaming terminal")
        if self.sanitizer is not None:
            self.sanitizer.on_stream_control(tt, term, key, "finalize")
        pkey = (tt.id, key)
        p = self._pending.get(pkey)
        if p is None:
            p = self._pending[pkey] = _Pending(tt)
        p.expected[term.index] = p.counts[term.index]
        self._maybe_fire(tt, key, p)

    def set_stream_size_via(
        self, src_rank: int, term: OutputTerminal, key: Any, size: int
    ) -> None:
        """Stream-size control routed through an *output* terminal: applies
        to every consumer of its edge, with a control message if remote."""
        nranks = self.nranks
        for ctt, cidx in term.edge.consumers:
            km = ctt._keymap
            dst = default_owner(key, nranks) if km is None else km(key)
            if not 0 <= dst < nranks:
                raise keymap_out_of_range(ctt, key, dst, nranks)
            if dst == src_rank:
                self.backend.post_local(self.set_argstream_size, ctt, cidx,
                                        key, size)
            else:
                self.backend.send_control(
                    src_rank, dst, _SetSize(self, ctt, cidx, key, size)
                )

    def finalize_stream_via(self, src_rank: int, term: OutputTerminal, key: Any) -> None:
        nranks = self.nranks
        for ctt, cidx in term.edge.consumers:
            km = ctt._keymap
            dst = default_owner(key, nranks) if km is None else km(key)
            if not 0 <= dst < nranks:
                raise keymap_out_of_range(ctt, key, dst, nranks)
            if dst == src_rank:
                self.backend.post_local(self.finalize_argstream, ctt, cidx,
                                        key)
            else:
                self.backend.send_control(
                    src_rank, dst, _Finalize(self, ctt, cidx, key)
                )

    # -------------------------------------------------------------- status

    @property
    def pending_instances(self) -> int:
        """Task instances waiting for inputs right now."""
        return len(self._pending)


# Small callable records instead of lambda closures: cheaper and they keep
# tracebacks readable when a delivery fails deep inside the event loop.


class _Routed:
    """Base of the delivery records: ``rank`` is the owner rank the sender
    computed for the message(s) the record carries."""

    __slots__ = ("rank",)


class _Deliver1(_Routed):
    """Arrival of one message for one (terminal, task ID): called with no
    argument for a control message, with the value otherwise."""

    __slots__ = ("ex", "tt", "idx", "key")

    def __init__(self, ex: Executable, tt: TemplateTask, idx: int, key: Any,
                 rank: int) -> None:
        self.ex, self.tt, self.idx, self.key, self.rank = ex, tt, idx, key, rank

    def __call__(self, value: Any = None) -> None:
        self.ex._deliver(self.tt, self.idx, self.key, value, self.rank)


class _DeliverV(_Deliver1):
    """The record of a message that carries a value (the transport calls
    it with the reconstructed value)."""

    __slots__ = ()


class _DeliverN(_Routed):
    """Arrival of one broadcast at a rank, covering all its targets there:
    called with no argument for a control broadcast, with the value
    otherwise."""

    __slots__ = ("ex", "targets")

    def __init__(self, ex: Executable,
                 targets: List[Tuple[TemplateTask, int, Any]], rank: int) -> None:
        self.ex, self.targets, self.rank = ex, targets, rank

    def __call__(self, value: Any = None) -> None:
        deliver, rank = self.ex._deliver, self.rank
        for tt, idx, key in self.targets:
            deliver(tt, idx, key, value, rank)


class _DeliverNV(_DeliverN):
    """The record of a broadcast that carries a value."""

    __slots__ = ()


class _SetSize:
    __slots__ = ("ex", "tt", "idx", "key", "size")

    def __init__(self, ex: Executable, tt: TemplateTask, idx: int, key: Any, size: int) -> None:
        self.ex, self.tt, self.idx, self.key, self.size = ex, tt, idx, key, size

    def __call__(self) -> None:
        self.ex.set_argstream_size(self.tt, self.idx, self.key, self.size)


class _Finalize:
    __slots__ = ("ex", "tt", "idx", "key")

    def __init__(self, ex: Executable, tt: TemplateTask, idx: int, key: Any) -> None:
        self.ex, self.tt, self.idx, self.key = ex, tt, idx, key

    def __call__(self) -> None:
        self.ex.finalize_argstream(self.tt, self.idx, self.key)


class _RunBody:
    """The body of one spawned task instance (template fn + bound inputs)."""

    __slots__ = ("ex", "tt", "rank", "key", "args")

    def __init__(self, ex: Executable, tt: TemplateTask, rank: int,
                 key: Any, args: Tuple[Any, ...]) -> None:
        self.ex, self.tt, self.rank, self.key = ex, tt, rank, key
        self.args = args

    def __call__(self) -> None:
        outs = TaskOutputs(self.ex, self.tt, self.rank, self.key)
        _CURRENT.append(outs)
        try:
            self.tt.fn(self.key, *self.args, outs)
        finally:
            _CURRENT.pop()


class _SanitizedBody(_RunBody):
    """A task body bracketed by the armed sanitizer's hooks (it takes its
    rank's clock as it begins)."""

    __slots__ = ()

    def __call__(self) -> None:
        sanitizer = self.ex.sanitizer
        sanitizer.on_body(self.tt, self.key, self.rank, self.args)
        try:
            _RunBody.__call__(self)
        finally:
            sanitizer.on_body_end()
