"""Structured event bus: spans, instants, counters in per-rank ring buffers.

The bus is the single collection point for everything the runtime,
communication and core layers can observe about an execution (the metrics
registry in :mod:`repro.telemetry.metrics` aggregates; the bus *records*).
Three event kinds:

- **spans** -- an interval on one (rank, tid) timeline: a task execution,
  an active message occupying the AM server, a splitmd phase.  Spans may
  be recorded whole (:meth:`EventBus.complete`) or opened and closed
  (:meth:`EventBus.begin` / :meth:`EventBus.end`), in which case proper
  LIFO nesting per timeline is enforced.
- **instants** -- a point event: a dependency edge, a sanitizer finding,
  a quiescence epoch, stream control.
- **counters** -- a sampled numeric snapshot (queue depth and the like).

Telemetry is *off by default*: every hook site in the runtime guards on
``backend.telemetry is None``, so a run without an attached
:class:`Telemetry` pays one attribute load and one branch per hook.  When
enabled, events land in per-rank ring buffers (``deque(maxlen=capacity)``)
so memory stays bounded on long runs; evictions are counted in
:attr:`EventBus.dropped`.

Recording is cheap, reading pays: the runtime's hooks append one flat
tuple of atoms per event (:meth:`EventBus.record`: no ``args`` dict, no
``repr`` of a task key, no formatted label) and the event objects are built
the first time the bus is read, or at once while a subscriber is attached.

Timelines within a rank are identified by an integer ``tid``: worker
threads use their worker index, and the reserved ids below keep transport
and diagnostic events on their own named lanes in the exported trace.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

#: Reserved timeline ids (per rank).  Worker threads occupy 0..nworkers-1
#: (plus GPU slots right above); these lanes hold non-worker activity.
TID_AM = 900       #: active-message server processing
TID_RMA = 901      #: one-sided transfers landing at the origin
TID_PROTO = 902    #: serialization-protocol phases (eager, splitmd meta/rma)
TID_SAN = 903      #: TTG-San findings
TID_RT = 904       #: runtime housekeeping (quiescence, stream control, deps)
TID_ENG = 905      #: event-engine health (conservative windows, heartbeats)

THREAD_NAMES = {
    TID_AM: "am-server",
    TID_RMA: "rma",
    TID_PROTO: "protocol",
    TID_SAN: "ttg-san",
    TID_RT: "runtime",
    TID_ENG: "engine",
}


#: Event kinds, the first argument of :meth:`EventBus.record`.
SPAN, INSTANT, COUNTER = 0, 1, 2


class TelemetryError(RuntimeError):
    """Misuse of the telemetry API (mis-nested spans, late attach...)."""


@dataclass(frozen=True)
class SpanEvent:
    """One interval on a (rank, tid) timeline."""

    name: str
    cat: str
    rank: int
    tid: int
    start: float
    end: float
    args: Dict[str, Any] = field(default_factory=dict)
    flow: Optional[int] = None

    @property
    def ts(self) -> float:
        return self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class InstantEvent:
    """One point event."""

    name: str
    cat: str
    rank: int
    tid: int
    ts: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterEvent:
    """A sampled numeric snapshot (one or more named values)."""

    name: str
    rank: int
    ts: float
    values: Dict[str, float] = field(default_factory=dict)

    @property
    def cat(self) -> str:
        return "counter"


@lru_cache(maxsize=None)
def _fields(spec: str) -> Tuple[Tuple[str, str], ...]:
    """``"dst[] key! size?"`` -> ``(("dst", "[]"), ("key", "!"), ("size", "?"))``."""
    names = ((word, word.rstrip("[]!?*")) for word in spec.split())
    return tuple((name, word[len(name):]) for word, name in names)


def _event(rec: tuple) -> Any:
    """Build the event object a record (see :meth:`EventBus.record`) stands for."""
    kind, name, cat, rank, tid, t0, t1, flow, keys = rec[:9]
    if type(keys) is tuple:
        args = dict(zip(keys, rec[9:]))
    else:
        args, vals = {}, iter(rec[9:])
        for key, how in _fields(keys):
            v = list(vals) if how == "*" else next(vals)
            if how == "[]":
                v = f"{v}[{next(vals)!r}]"
            elif how == "!":
                v = repr(v)
            elif how == "?" and v is None or how == "*" and not v:
                continue
            args[key] = v
    if kind == SPAN:
        return SpanEvent(name, cat, rank, tid, t0, t1, args, flow)
    if kind == INSTANT:
        return InstantEvent(name, cat, rank, tid, t0, args)
    return CounterEvent(name, rank, t0, args)


class _OpenSpan:
    """Handle returned by :meth:`EventBus.begin`; close with ``end``."""

    __slots__ = ("name", "cat", "rank", "tid", "start", "args", "flow", "closed")

    def __init__(self, name: str, cat: str, rank: int, tid: int, start: float,
                 args: Dict[str, Any], flow: Optional[int]) -> None:
        self.name = name
        self.cat = cat
        self.rank = rank
        self.tid = tid
        self.start = start
        self.args = args
        self.flow = flow
        self.closed = False


class EventBus:
    """Per-rank ring buffers of telemetry events.

    ``capacity`` bounds each rank's buffer; ``capacity=0`` buffers nothing
    (metrics-only mode, used by the bench harness); ``capacity=None``
    is unbounded (tests, short runs).  ``clock`` is a zero-argument
    callable returning the current virtual time; binding a backend
    replaces it with the backend engine's clock.

    A ring holds event objects and unread records side by side; reading
    replaces the records in place, so an event keeps its identity.
    """

    def __init__(
        self,
        nranks: int = 1,
        capacity: Optional[int] = 65536,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.capacity = capacity
        self._rings: List[deque] = []
        self.dropped: List[int] = []
        self.ensure_ranks(max(1, nranks))
        self._stacks: Dict[Tuple[int, int], List[_OpenSpan]] = {}
        # Explicit flow counter (not itertools.count): physical checkpoints
        # capture/restore it so flow ids of a resumed run match an
        # uninterrupted one.
        self._flow_next = 1
        # Streaming subscribers: called with every event as it is recorded
        # (even in capacity=0 metrics-only mode -- a subscriber is a live
        # consumer, not a buffer).
        self._subscribers: List[Callable[[Any], None]] = []
        #: Whether anything can see an event (a buffer or a subscriber);
        #: every hook site checks it before gathering an event's parts.
        self.recording = capacity != 0

    # ------------------------------------------------------------- plumbing

    def now(self) -> float:
        return self.clock()

    def ensure_ranks(self, nranks: int) -> None:
        while len(self._rings) < nranks:
            self._rings.append(deque(maxlen=self.capacity))
            self.dropped.append(0)

    @property
    def enabled(self) -> bool:
        """False in metrics-only mode (``capacity=0``): nothing to read back."""
        return self.capacity != 0

    def new_flow(self) -> int:
        """A fresh id linking related spans (exported as a flow arrow)."""
        flow = self._flow_next
        self._flow_next = flow + 1
        return flow

    def dump_state(self) -> dict:
        """Ring/stack/flow state for physical checkpoints (format v2)."""
        return {
            "rings": [list(r) for r in self._rings],
            "dropped": list(self.dropped),
            "stacks": {k: list(v) for k, v in self._stacks.items()},
            "flow_next": self._flow_next,
        }

    def load_state(self, state: dict) -> None:
        self.ensure_ranks(len(state["rings"]))
        for ring, evs in zip(self._rings, state["rings"]):
            ring.clear()
            ring.extend(evs)
        for r, n in enumerate(state["dropped"]):
            self.dropped[r] = n
        self._stacks = {k: list(v) for k, v in state["stacks"].items()}
        self._flow_next = state["flow_next"]

    def subscribe(self, fn: Callable[[Any], None]) -> Callable[[Any], None]:
        """Stream every subsequently recorded event to ``fn``.

        Subscribers see events even in metrics-only mode (``capacity=0``):
        streaming does not require buffering.  Returns ``fn`` so the call
        can be used inline; detach with :meth:`unsubscribe`.
        """
        self._subscribers.append(fn)
        self.recording = True
        return fn

    def unsubscribe(self, fn: Callable[[Any], None]) -> None:
        self._subscribers.remove(fn)
        self.recording = self.capacity != 0 or bool(self._subscribers)

    def _put(self, rank: int, item: Any) -> None:
        """Store one event object or record; subscribers get the object."""
        if self._subscribers:
            if type(item) is tuple:
                item = _event(item)
            for fn in self._subscribers:
                fn(item)
        if self.capacity == 0:
            return
        if rank >= len(self._rings):
            self.ensure_ranks(rank + 1)
        ring = self._rings[rank]
        if len(ring) == ring.maxlen:
            self.dropped[rank] += 1
        ring.append(item)

    def extend(self, events: Iterable[Any], rank_offset: int = 0) -> None:
        """Append events recorded elsewhere (event objects, or another bus's
        :meth:`drain`) in order, each on its own rank plus ``rank_offset``."""
        for item in events:
            if rank_offset:
                item = _event(item) if type(item) is tuple else item
                item = dataclasses.replace(item, rank=item.rank + rank_offset)
            self._put(item[3] if type(item) is tuple else item.rank, item)

    def clear(self) -> None:
        """Forget every buffered event and eviction count."""
        for ring in self._rings:
            ring.clear()
        self.dropped[:] = [0] * len(self.dropped)

    def drain(self) -> Tuple[List[Any], List[int]]:
        """Remove and return ``(events, dropped)``: everything buffered, rank
        by rank in recording order and still unread, for :meth:`extend`."""
        out = [item for ring in self._rings for item in ring], list(self.dropped)
        self.clear()
        return out

    # ------------------------------------------------------------ recording

    def record(self, kind: int, name: str, cat: str, rank: int, tid: int,
               t0: float, t1: float, flow: Optional[int],
               keys: Union[str, Tuple[str, ...]], *vals: Any) -> None:
        """The runtime hooks' recording path: store the parts of one event
        (check :attr:`recording` first), build the object on first read.

        ``kind`` is :data:`SPAN`, :data:`INSTANT` or :data:`COUNTER`
        (instants and counters pass ``ts`` as ``t0`` and ``t1``; counters
        use ``cat="counter"``, ``tid=0``).  ``keys`` names ``vals`` in
        ``args`` order: a tuple of names, or a space-separated string whose
        names may defer formatting -- ``key!`` stores ``repr(value)``,
        ``dst[]`` takes two values and stores the task label
        ``"NAME[key!r]"``, ``size?`` is left out when ``None``, a final
        ``data*`` stores the remaining values as a list (left out when
        empty).  Pass atoms (strings, numbers, ``None``, immutable keys):
        such a record costs the cyclic GC nothing, and a deferred value
        must not change before it is read.
        """
        rec = (kind, name, cat, rank, tid, t0, t1, flow, keys) + vals
        if self._subscribers or self.capacity == 0 or rank >= len(self._rings):
            return self._put(rank, rec)
        ring = self._rings[rank]  # _put's common case, inline
        if len(ring) == ring.maxlen:
            self.dropped[rank] += 1
        ring.append(rec)

    def begin(self, name: str, rank: int, tid: int = 0, cat: str = "",
              flow: Optional[int] = None, **args: Any) -> _OpenSpan:
        """Open a span on (rank, tid); close it with :meth:`end`."""
        span = _OpenSpan(name, cat, rank, tid, self.now(), dict(args), flow)
        self._stacks.setdefault((rank, tid), []).append(span)
        return span

    def end(self, span: _OpenSpan, **extra: Any) -> SpanEvent:
        """Close ``span``; open spans on a timeline must close LIFO."""
        if span.closed:
            raise TelemetryError(f"span {span.name!r} ended twice")
        stack = self._stacks.get((span.rank, span.tid), [])
        if not stack or stack[-1] is not span:
            raise TelemetryError(
                f"span {span.name!r} ended out of order on rank {span.rank} "
                f"tid {span.tid} (open: {[s.name for s in stack]})"
            )
        stack.pop()
        span.closed = True
        if extra:
            span.args.update(extra)
        ev = SpanEvent(span.name, span.cat, span.rank, span.tid, span.start,
                       self.now(), span.args, span.flow)
        self._put(span.rank, ev)
        return ev

    @contextmanager
    def span(self, name: str, rank: int, tid: int = 0, cat: str = "",
             flow: Optional[int] = None, **args: Any) -> Iterator[_OpenSpan]:
        handle = self.begin(name, rank, tid, cat, flow, **args)
        try:
            yield handle
        finally:
            self.end(handle)

    def complete(self, name: str, rank: int, tid: int, start: float, end: float,
                 cat: str = "", flow: Optional[int] = None,
                 args: Optional[Dict[str, Any]] = None) -> SpanEvent:
        """Record an already-finished span (no nesting bookkeeping)."""
        ev = SpanEvent(name, cat, rank, tid, start, end, args or {}, flow)
        self._put(rank, ev)
        return ev

    def instant(self, name: str, rank: int, tid: int = 0, cat: str = "",
                **args: Any) -> InstantEvent:
        ev = InstantEvent(name, cat, rank, tid, self.now(), dict(args))
        self._put(rank, ev)
        return ev

    def counter(self, name: str, rank: int, **values: float) -> CounterEvent:
        ev = CounterEvent(name, rank, self.now(), dict(values))
        self._put(rank, ev)
        return ev

    # -------------------------------------------------------------- queries

    def open_spans(self) -> List[_OpenSpan]:
        return [s for stack in self._stacks.values() for s in stack]

    def _read(self, ring: deque) -> List[Any]:
        """``ring``'s events, its unread records replaced by their objects."""
        evs = [_event(r) if type(r) is tuple else r for r in ring]
        ring.clear()
        ring.extend(evs)
        return evs

    def events(self, rank: Optional[int] = None) -> List[Any]:
        """All recorded events, time-sorted (stable across ranks)."""
        rings = self._rings if rank is None else [self._rings[rank]]
        evs = [ev for ring in rings for ev in self._read(ring)]
        return sorted(evs, key=lambda e: (e.ts, e.rank))

    def spans(self, cat: Optional[str] = None) -> List[SpanEvent]:
        return [e for e in self.events()
                if isinstance(e, SpanEvent) and (cat is None or e.cat == cat)]

    def instants(self, cat: Optional[str] = None) -> List[InstantEvent]:
        return [e for e in self.events()
                if isinstance(e, InstantEvent) and (cat is None or e.cat == cat)]

    def counters(self, name: Optional[str] = None) -> List[CounterEvent]:
        return [e for e in self.events()
                if isinstance(e, CounterEvent) and (name is None or e.name == name)]

    def __len__(self) -> int:
        return sum(len(r) for r in self._rings)

    @property
    def nranks(self) -> int:
        return len(self._rings)

    def makespan(self) -> float:
        """Largest end/ts across all events (0 when empty)."""
        out = 0.0
        for ring in self._rings:
            for e in self._read(ring):
                out = max(out, e.end if isinstance(e, SpanEvent) else e.ts)
        return out


class Telemetry:
    """The bundle a backend carries: one event bus + one metrics registry.

    Create one per execution and attach it with
    ``backend.attach_telemetry(telemetry)`` (or pass ``telemetry=`` to the
    backend constructor); :meth:`bind` is called by the backend and wires
    the bus clock to the backend's virtual-time engine.

    ``events=False`` keeps only the metrics registry (bus capacity 0) --
    the cheap mode the bench harness uses for counters-JSON emission.
    """

    def __init__(self, nranks: int = 1, capacity: Optional[int] = 65536,
                 events: bool = True) -> None:
        from repro.telemetry.metrics import MetricsRegistry

        self.bus = EventBus(nranks=nranks, capacity=capacity if events else 0)
        self.metrics = MetricsRegistry()
        self._bound_backend: Optional[Any] = None
        # Data tokens: id(value) -> (value, token).  The strong ref on
        # ``value`` pins it for the run so CPython cannot recycle its id
        # for a different buffer -- which would corrupt the race
        # detector's identity tracking.  Telemetry is opt-in, so regular
        # runs never populate this.
        self._data_tokens: Dict[int, Tuple[Any, int]] = {}
        self._trackable: Dict[type, bool] = {}

    def data_token(self, value: Any) -> Optional[int]:
        """A stable per-run identity token for a trackable data value.

        Trackable means tile-/array-like (has ``clone`` or ``tobytes``,
        scalars and strings excluded) -- the buffers the race detector
        follows across ranks.  The same object always yields the same
        token; distinct live objects always yield distinct tokens.
        Returns ``None`` for untrackable values (they are not race
        subjects).
        """
        cls = type(value)
        trackable = self._trackable.get(cls)
        if trackable is None:
            # clone/tobytes are methods: probe each class once.
            trackable = self._trackable[cls] = not (
                value is None
                or isinstance(value, (int, float, complex, str, bytes, bool))
            ) and (callable(getattr(value, "clone", None))
                   or callable(getattr(value, "tobytes", None)))
        if not trackable:
            return None
        key = id(value)
        rec = self._data_tokens.get(key)
        if rec is not None and rec[0] is value:
            return rec[1]
        token = len(self._data_tokens) + 1
        self._data_tokens[key] = (value, token)
        return token

    def bind(self, backend: Any) -> None:
        """Wire the bus to ``backend``'s engine clock and rank count."""
        self._bound_backend = backend
        engine = backend.engine
        # Not a lambda: the ``now`` property is the only Python-level call.
        self.bus.clock = partial(getattr, engine, "now")
        self.bus.ensure_ranks(backend.nranks)

    @property
    def backend(self) -> Optional[Any]:
        return self._bound_backend
