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
from repro.core.task import TemplateTask
from repro.core.terminals import OutputTerminal
from repro.runtime.base import Backend
from repro.telemetry.events import INSTANT, TID_RT

#: ``EventBus.record`` arg specs of the dependency / zero-copy instants:
#: the consumer label ``dst`` is formatted from (template name, key) on read.
_DEP_ARGS = "src dst[] edge obj? mode?"
_ALIAS_ARGS = "src dst[] obj mode"

_EMPTY = object()

# Construction observers: callables ``fn(kind, obj)`` invoked whenever a
# TaskGraph ("graph") or Executable ("executable") is created.  The
# analysis CLI uses this to discover every graph a script builds without
# the script cooperating; see repro.analysis.cli.
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

    def validate(self, nranks: Optional[int] = None,
                 shardsafe: bool = False) -> List[str]:
        """Wiring diagnostics as human-readable strings.

        Thin wrapper over the :mod:`repro.analysis` linter (the single
        source of truth for graph diagnostics); each string starts with
        the rule id, e.g. ``"TTG001 [info] g/T.in0: edge 'unfed' ..."``.
        ``shardsafe=True`` additionally runs the static shard-safety
        pass (:mod:`repro.analysis.shardsafe`, SHD rules).
        """
        from repro.analysis.lint import lint_graph

        findings = lint_graph(self, nranks=nranks)
        if shardsafe:
            from repro.analysis.shardsafe import shardsafe_graph

            findings = findings + shardsafe_graph(self, nranks=nranks)
        return [str(f) for f in findings]

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
        sanitize: bool = False, shardsafe: bool = False,
    ) -> "Executable":
        """Bind this template graph to a backend (make_graph_executable).

        ``strict=True`` raises on any error-severity lint finding and
        arms the runtime sanitizer in raising mode; ``sanitize=True``
        arms the sanitizer in collect-and-warn mode.  ``shardsafe=True``
        adds the static shard-safety pass at construction and, when
        telemetry is attached, the happens-before race detector at
        :meth:`Executable.fence`.
        """
        return Executable(self, backend, strict=strict, sanitize=sanitize,
                          shardsafe=shardsafe)


class _Pending:
    """Accumulating inputs of one not-yet-ready task instance.

    ``missing`` is the readiness counter of templates whose inputs all
    take a single message (``not tt.streams``): the number of inputs still
    empty; the instance fires when it reaches zero.  Templates with a
    streaming input compare ``counts`` with ``expected`` instead.  The
    counter is derived state: snapshots store ``slots``, ``counts`` and
    ``expected`` only, and :meth:`restore` recomputes it.
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

    @classmethod
    def restore(cls, tt: TemplateTask, slots: Sequence[Any],
                counts: Sequence[int],
                expected: Sequence[Optional[int]]) -> "_Pending":
        """Rebuild an instance from the fields a snapshot stores."""
        p = cls(tt)
        p.slots = list(slots)
        p.counts = list(counts)
        p.expected = list(expected)
        p.missing = p.counts.count(0)
        return p


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
        shardsafe: bool = False,
    ) -> None:
        self.graph = graph
        self.backend = backend
        self.nranks = backend.nranks
        self._pending: Dict[Tuple[int, Any], _Pending] = {}
        self.task_counts: Counter = Counter()
        self._tt_ids = {tt.id for tt in graph.tts}
        self.strict = strict
        self.shardsafe = shardsafe
        self.race_findings: List[Any] = []
        self.sanitizer = None
        if strict or sanitize:
            from repro.analysis.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(self, strict=strict)
            backend.sanitizer = self.sanitizer
        from repro.analysis.lint import lint_graph

        self.findings = lint_graph(graph, nranks=backend.nranks)
        if shardsafe:
            from repro.analysis.shardsafe import shardsafe_graph

            self.findings = self.findings + shardsafe_graph(
                graph, nranks=backend.nranks
            )
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
        if backend.checkpointer is not None:
            # Durable runs snapshot this executable's bookkeeping
            # (pending instances, per-template counts) at every cadence
            # point; see repro.durability.checkpoint.
            backend.checkpointer.bind_executable(self)
        register = getattr(backend, "register_executable", None)
        if register is not None:
            # Runtime registry walks (event pickling for physical
            # checkpoints) key executables by this order.
            register(self)
        _notify_observers("executable", self)

    @classmethod
    def make(
        cls,
        graph: TaskGraph,
        backend: Backend,
        *,
        strict: bool = False,
        sanitize: bool = False,
        shardsafe: bool = False,
    ) -> "Executable":
        """Bind ``graph`` to ``backend`` (``make_graph_executable``).

        ``Executable.make(graph, backend, strict=True)`` is the verified
        entry point: the linter raises on error findings and the runtime
        sanitizer raises at the first detected fault.
        ``shardsafe=True`` adds the shard-safety pass (and, with
        telemetry attached, the fence-time race detector).
        """
        return cls(graph, backend, strict=strict, sanitize=sanitize,
                   shardsafe=shardsafe)

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
            tok = tel.data_token(value)
            now = tel.bus.now()
            tel.bus.record(
                INSTANT, "dep", "dep", 0, TID_RT, now, now, None, _DEP_ARGS,
                "<external>", tt.name, key, term.edge.name,
                tok, None if tok is None else "value",
            )
        dst = tt.keymap(key, self.nranks)
        self.backend.post_local(self._deliver, tt, term.index, key, value,
                                dst, rank=dst)

    def fence(self, max_events: Optional[int] = None) -> float:
        """Drain all tasks and messages; returns the makespan.

        With ``shardsafe=True`` and telemetry attached, a completed
        fence (``max_events=None``) additionally runs the happens-before
        race detector over the recorded event stream; findings land on
        :attr:`race_findings` (strict mode raises instead).
        """
        if self.backend.ledger is not None:
            self.backend.ledger.phase("fence", sim=self.backend.engine.now,
                                      graph=self.graph.name)
        if self.backend.checkpointer is not None:
            self.backend.checkpointer.phase("fence")
        makespan = self.backend.run(max_events=max_events)
        if self.sanitizer is not None and max_events is None:
            self.sanitizer.on_shutdown()
        if self.shardsafe and max_events is None:
            tel = self.backend.telemetry
            if tel is not None and tel.bus.enabled:
                from repro.analysis.race import detect_races
                from repro.core.exceptions import SanitizerError

                self.race_findings = detect_races(tel)
                if self.race_findings:
                    if self.strict:
                        raise SanitizerError(
                            f"race detector found "
                            f"{len(self.race_findings)} race(s): "
                            + "; ".join(str(f) for f in self.race_findings),
                            rule=self.race_findings[0].rule.id,
                        )
                    for f in self.race_findings:
                        warnings.warn(f"TTG race: {f}", RuntimeWarning,
                                      stacklevel=2)
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
            # Data token: stable per-run identity for the sent buffer,
            # stamped on dep instants (and alias instants for zero-copy
            # deliveries) so the race detector can follow one buffer
            # across ranks.
            tok = tel.data_token(value)
            tok_mode = None if tok is None else mode
            src, now = current_task_label(), bus.now()
        # Message tags are only ever read by a tracer or a recording bus.
        tagged = bus is not None or backend.tracer is not None
        for ctt, cidx in edge.consumers:
            if sanitizer is not None:
                sanitizer.on_route(ctt, cidx, key, value, mode)
            if bus is not None:
                bus.record(INSTANT, "dep", "dep", src_rank, TID_RT, now, now,
                           None, _DEP_ARGS, src, ctt.name, key, edge.name,
                           tok, tok_mode)
            # The one keymap evaluation of this message: the owner rank
            # rides along to _deliver/_spawn.
            dst = ctt.keymap(key, nranks)
            if dst == src_rank:
                backend.stats.local_deliveries += 1
                v2, delay = backend.maybe_copy_local(value, mode)
                if bus is not None and tok is not None and v2 is value:
                    bus.record(INSTANT, "alias", "alias", src_rank, TID_RT,
                               now, now, None, _ALIAS_ARGS, src, ctt.name,
                               key, tok, mode)
                backend.post_local(self._deliver, ctt, cidx, key, v2, dst,
                                   delay=delay, rank=dst)
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
        tel = backend.telemetry
        backend.stats.broadcasts += 1
        if tel is not None:
            tel.metrics.counter("broadcasts", mode=backend.config.broadcast).inc()
        if backend.config.broadcast == "naive":
            for term, keys in spec:
                for k in keys:
                    self.send_from(src_rank, term, k, value, mode)
            return
        bus = tel.bus if tel is not None and tel.bus.recording else None
        if bus is not None:
            tok = tel.data_token(value)
            tok_mode = None if tok is None else mode
            src, now = current_task_label(), bus.now()
        sanitizer = self.sanitizer
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
                        bus.record(INSTANT, "dep", "dep", src_rank, TID_RT,
                                   now, now, None, _DEP_ARGS, src, ctt.name,
                                   k, edge.name, tok, tok_mode)
                    # The targets of one destination share its rank, which
                    # rides along on the batch / the _DeliverN(V) record.
                    dst = ctt.keymap(k, nranks)
                    per_rank.setdefault(dst, []).append((ctt, cidx, k))
        for dst in sorted(per_rank):
            targets = per_rank[dst]
            backend.stats.broadcast_keys_covered += len(targets)
            if dst == src_rank:
                backend.stats.local_deliveries += len(targets)
                v2, delay = backend.maybe_copy_local(value, mode)
                if bus is not None and tok is not None and v2 is value:
                    for ctt, cidx, k in targets:
                        bus.record(INSTANT, "alias", "alias", src_rank,
                                   TID_RT, now, now, None, _ALIAS_ARGS, src,
                                   ctt.name, k, tok, mode)
                # One heap entry for the whole same-timestamp fan-out.
                backend.post_local_batch(
                    [(self._deliver, (ctt, cidx, k, v2, dst))
                     for ctt, cidx, k in targets],
                    delay=delay, rank=dst)
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
                 rank: Optional[int] = None) -> None:
        """Terminal logic at the owner rank: accumulate, fire when ready.

        ``rank`` is the owner rank the sender's keymap evaluation gave
        (keymaps are pure, SHD007); ``None`` -- a record restored from a
        checkpoint written before the rank travelled with the message --
        makes :meth:`_spawn` ask the keymap again.
        """
        if self.sanitizer is not None:
            self.sanitizer.on_deliver(tt, idx, key, value)
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
            tel = self.backend.telemetry
            if tel is not None:
                tel.metrics.counter(
                    "stream_items", template=tt.name, terminal=term.name
                ).inc()
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
        so that is list equality."""
        if p.counts != p.expected:
            return
        del self._pending[(tt.id, key)]
        self._spawn(tt, key, [None if s is _EMPTY else s for s in p.slots],
                    rank)

    def _spawn(self, tt: TemplateTask, key: Any, args: Sequence[Any],
               rank: Optional[int] = None) -> None:
        if rank is None:
            rank = tt.keymap(key, self.nranks)
        if self.sanitizer is not None:
            self.sanitizer.on_spawn(tt, key, args)
        args = tuple(args)
        flops, bytes_moved = tt.cost(key, args)
        self.task_counts[tt.name] += 1
        self.backend.submit(
            rank, _RunBody(self, tt, rank, key, args), flops, bytes_moved,
            tt.priority(key), tt.name, key, tt.device(key), args,
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
        for ctt, cidx in term.edge.consumers:
            dst = ctt.keymap(key, self.nranks)
            if dst == src_rank:
                self.backend.post_local(self.set_argstream_size, ctt, cidx,
                                        key, size, rank=dst)
            else:
                self.backend.send_control(
                    src_rank, dst, _SetSize(self, ctt, cidx, key, size)
                )

    def finalize_stream_via(self, src_rank: int, term: OutputTerminal, key: Any) -> None:
        for ctt, cidx in term.edge.consumers:
            dst = ctt.keymap(key, self.nranks)
            if dst == src_rank:
                self.backend.post_local(self.finalize_argstream, ctt, cidx,
                                        key, rank=dst)
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
    computed for the message(s) the record carries.  A record unpickled
    from a checkpoint written before the rank travelled with the message
    has none; it gets ``None`` and the delivery asks the keymap again."""

    __slots__ = ("rank",)

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        self.rank = None
        for name, value in state[1].items():
            setattr(self, name, value)


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
    """The body of one spawned task instance (template fn + bound inputs).

    A record rather than a closure so ready tasks sitting in worker queues
    or the event heap pickle: the executable and template task resolve by
    reference through the runtime registry, only ``key`` and the input
    values serialize by value.
    """

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
