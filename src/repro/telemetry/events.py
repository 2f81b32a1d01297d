"""Structured event bus: spans, instants, counters in per-rank logs.

The bus is the single collection point for everything the runtime,
communication and core layers can observe about an execution: every
count and distribution of a run is read from what it recorded here (and
from the backend's always-on ``RunStats``).  Three event kinds:

- **spans** -- an interval on one (rank, tid) timeline: a task execution,
  an active message occupying the AM server, a splitmd phase.  A span is
  recorded whole, once it has ended (:meth:`EventBus.complete`).
- **instants** -- a point event: a dependency edge, a sanitizer finding,
  a quiescence epoch, stream control.
- **counters** -- a sampled numeric snapshot (queue depth and the like).

Telemetry is *off by default*: every hook site in the runtime guards on
``backend.telemetry is None``, so a run without an attached
:class:`Telemetry` pays one attribute load and one branch per hook.  When
enabled, each rank's events land in one flat log (:attr:`EventBus.logs`);
a bounded bus keeps the last ``capacity`` records per rank and counts the
evicted ones in :attr:`EventBus.dropped`.

Recording is cheap, reading pays: a record is its head followed by its
fields, appended to the rank's log as atoms (no tuple is retained per
record, no ``args`` dict, no ``repr`` of a task key, no formatted label).
The hot hook sites append to ``logs[rank]`` themselves, with a head they
built once; a broadcast fan-out is one batch (:meth:`EventBus.batch`).
The event objects are built the first time the bus is read.

Timelines within a rank are identified by an integer ``tid``: worker
threads use their worker index, and the reserved ids below keep transport
and diagnostic events on their own named lanes in the exported trace.

:func:`capture` is the attach-everything recorder the telemetry CLI and
the bench harness use: a context manager that gives every backend bound
inside the ``with`` block its own :class:`Telemetry`.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

#: Reserved timeline ids (per rank).  Worker threads occupy 0..nworkers-1;
#: these lanes hold non-worker activity.
TID_AM = 900       #: active-message server processing
TID_RMA = 901      #: one-sided transfers landing at the origin
TID_PROTO = 902    #: serialization-protocol phases (eager, splitmd meta/rma)
TID_SAN = 903      #: TTG-San findings
TID_RT = 904       #: runtime housekeeping (quiescence, stream control, deps)

THREAD_NAMES = {
    TID_AM: "am-server",
    TID_RMA: "rma",
    TID_PROTO: "protocol",
    TID_SAN: "ttg-san",
    TID_RT: "runtime",
}


#: Event kinds, the first argument of :meth:`EventBus.record` and the
#: first field of a record head.
SPAN, INSTANT, COUNTER = 0, 1, 2
#: Leads a batch of several records in a rank's log (:meth:`EventBus.batch`).
BATCH = 3


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
    names = ((word, word.rstrip("[]!?")) for word in spec.split())
    return tuple((name, word[len(name):]) for word, name in names)


@lru_cache(maxsize=None)
def _width(keys: Union[str, Tuple[str, ...]]) -> int:
    """Atoms after a record's head: ``t0``, ``t1``, ``flow`` and the values."""
    if isinstance(keys, tuple):
        return 3 + len(keys)
    return 3 + sum(2 if how == "[]" else 1 for _, how in _fields(keys))


def _event(rec: tuple) -> Any:
    """Build the event object a record (see :meth:`EventBus.emit`) stands for."""
    (kind, name, cat, rank, tid, keys), t0, t1, flow = rec[:4]
    vals = rec[4:]
    if type(keys) is tuple:
        args = dict(zip(keys, vals))
    else:
        args, vals = {}, iter(vals)
        for key, how in _fields(keys):
            v = next(vals)
            if how == "[]":
                v = f"{v}[{next(vals)!r}]"
            elif how == "!":
                v = repr(v)
            elif how == "?" and v is None:
                continue
            args[key] = v
    if kind == SPAN:
        return SpanEvent(name, cat, rank, tid, t0, t1, args, flow)
    if kind == INSTANT:
        return InstantEvent(name, cat, rank, tid, t0, args)
    return CounterEvent(name, rank, t0, args)


def _entries(log: List[Any]) -> Iterator[Any]:
    """The records of one rank's log in order: a record as the tuple
    ``(head, t0, t1, flow, *vals)``, an event object as itself, and a
    batch as the records it stands for."""
    i, n = getattr(log, "start", 0), len(log)
    while i < n:
        item = log[i]
        if type(item) is tuple:
            end = i + 1 + _width(item[5])
            yield tuple(log[i:end])
            i = end
        elif type(item) is int:
            head, width, values = log[i + 1:i + 4]
            for k in range(0, len(values), width):
                yield head + tuple(values[k:k + width])
            i += 4
        else:
            yield item
            i += 1


class _Ring(list):
    """A bounded rank log: each :meth:`extend` appends one record, and the
    oldest record beyond ``capacity`` is evicted and counted in
    ``dropped[rank]``.  Evicted atoms stay before ``start`` until they are
    half the list, so an eviction costs O(1) amortized."""

    __slots__ = ("capacity", "dropped", "rank", "count", "start")

    def __init__(self, capacity: int, dropped: List[int], rank: int) -> None:
        super().__init__()
        self.capacity, self.dropped, self.rank = capacity, dropped, rank
        self.count = self.start = 0

    def extend(self, rec: tuple) -> None:  # type: ignore[override]
        list.extend(self, rec)
        if self.count < self.capacity:
            self.count += 1
            return
        oldest = self[self.start]
        self.start += 1 + _width(oldest[5]) if type(oldest) is tuple else 1
        self.dropped[self.rank] += 1
        if 2 * self.start > len(self):
            del self[:self.start]
            self.start = 0

    def clear(self) -> None:
        list.clear(self)
        self.count = self.start = 0


class Handles(dict):
    """Record heads (see :meth:`EventBus.emit`) resolved once per value.

    ``handles[value]`` is ``make(value)``, computed on first use and a
    plain dict hit after that, so a hook site builds no head tuple per
    event.
    """

    __slots__ = ("make",)

    def __init__(self, make: Callable[[Any], Any]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, value: Any) -> Any:
        handle = self[value] = self.make(value)
        return handle


class _Expanding:
    """What :meth:`EventBus.batch` hands out when the batch cannot be one
    entry: each item is stored as its own record as it comes in."""

    __slots__ = ("bus", "rank", "head", "width")

    def __init__(self, bus: "EventBus", rank: int, head: tuple,
                 width: int) -> None:
        self.bus, self.rank, self.head, self.width = bus, rank, head, width

    def extend(self, values: Iterable[Any]) -> None:
        flat, width = tuple(values), self.width
        for i in range(0, len(flat), width):
            self.bus._put(self.rank, self.head + flat[i:i + width])


class EventBus:
    """Per-rank flat logs of telemetry records and events.

    ``capacity`` bounds each rank's log to its last ``capacity`` records;
    ``capacity=0`` stores nothing (``Telemetry(events=False)``);
    ``capacity=None`` is unbounded (tests, short runs).  ``clock`` is a
    zero-argument callable returning the current virtual time; binding a
    backend replaces it with the backend engine's clock.

    ``logs[rank]`` holds records as atoms (see :meth:`emit`) and event
    objects side by side; reading replaces the records in place, so an
    event keeps its identity.  Only an unbounded log keeps batches
    (:meth:`batch`): eviction and ``dropped`` work per record.
    """

    def __init__(
        self,
        nranks: int = 1,
        capacity: Optional[int] = 65536,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.capacity = capacity
        #: One flat list per rank; the hot hook sites ``extend`` it with
        #: one whole record per call.
        self.logs: List[List[Any]] = []
        self.dropped: List[int] = []
        self.ensure_ranks(max(1, nranks))
        self._flow_next = 1
        #: False when ``capacity=0``: nothing is stored, so every hook
        #: site checks it before gathering an event's parts.
        self.recording = capacity != 0

    # ------------------------------------------------------------- plumbing

    def now(self) -> float:
        return self.clock()

    def ensure_ranks(self, nranks: int) -> None:
        while len(self.logs) < nranks:
            rank = len(self.logs)
            self.logs.append([] if self.capacity is None
                             else _Ring(self.capacity, self.dropped, rank))
            self.dropped.append(0)

    def new_flow(self) -> int:
        """A fresh id linking related spans (exported as a flow arrow)."""
        flow = self._flow_next
        self._flow_next = flow + 1
        return flow

    def _put(self, rank: int, item: Any) -> None:
        """Store one event object or record tuple."""
        if self.capacity == 0:
            return
        if rank >= len(self.logs):
            self.ensure_ranks(rank + 1)
        self.logs[rank].extend(item if type(item) is tuple else (item,))

    def extend(self, events: Iterable[Any], rank_offset: int = 0) -> None:
        """Append events recorded elsewhere (event objects, or another bus's
        :meth:`drain`) in order, each on its own rank plus ``rank_offset``."""
        for item in events:
            if rank_offset:
                item = _event(item) if type(item) is tuple else item
                item = dataclasses.replace(item, rank=item.rank + rank_offset)
            self._put(item[0][3] if type(item) is tuple else item.rank, item)

    def clear(self) -> None:
        """Forget every stored event and eviction count."""
        for log in self.logs:
            log.clear()
        self.dropped[:] = [0] * len(self.dropped)

    def drain(self) -> Tuple[List[Any], List[int]]:
        """Remove and return ``(events, dropped)``: everything stored, rank
        by rank in recording order and still unread, for :meth:`extend`."""
        out = ([item for log in self.logs for item in _entries(log)],
               list(self.dropped))
        self.clear()
        return out

    # ------------------------------------------------------------ recording

    def record(self, kind: int, name: str, cat: str, rank: int, tid: int,
               t0: float, t1: float, flow: Optional[int],
               keys: Union[str, Tuple[str, ...]], *vals: Any) -> None:
        """Store the parts of one event (check :attr:`recording` first);
        the object is built on first read.  Hot hook sites append to
        :attr:`logs` themselves, with a head they built once.

        ``kind`` is :data:`SPAN`, :data:`INSTANT` or :data:`COUNTER`
        (instants and counters pass ``ts`` as ``t0`` and ``t1``; counters
        use ``cat="counter"``, ``tid=0``).  ``keys`` names ``vals`` in
        ``args`` order: a tuple of names, or a space-separated string whose
        names may defer formatting -- ``key!`` stores ``repr(value)``,
        ``dst[]`` takes two values and stores the task label
        ``"NAME[key!r]"``, ``size?`` is left out when ``None``.  Pass atoms
        (strings, numbers, ``None``, immutable keys): a deferred value must
        not change before it is read.  The atoms are appended to the rank's
        flat log and no tuple is kept per record, so recording does not
        drive collections of the young generation.
        """
        self.emit(((kind, name, cat, rank, tid, keys), t0, t1, flow) + vals)

    def emit(self, rec: tuple) -> None:
        """Store one record ``(head, t0, t1, flow, *vals)``.  ``head`` is
        ``(kind, name, cat, rank, tid, keys)``, the fields :meth:`record`
        takes in the same order; a hook site builds each head once and
        shares it between the records of one timeline and shape.  A hook
        site on the hot path does what this does inline:
        ``bus.logs[rank].extend(rec)``."""
        rank = rec[0][3]
        if self.capacity != 0 and rank < len(self.logs):
            self.logs[rank].extend(rec)  # _put's common case, inline
        else:
            self._put(rank, rec)

    def batch(self, head: tuple, width: int,
              expand: bool = False) -> "Union[List[Any], _Expanding]":
        """One log entry for many records that differ only in ``width``
        values: a broadcast's per-key instants share everything but the
        consumer.  Each ``width`` values the caller adds with ``extend``
        to the returned list stand for the record ``head + item``:
        ``head`` is a record's leading part (see :meth:`emit`).  The items
        lie flat in one list, so a key costs no allocation of its own.

        The entry is stored now, so it keeps its place among the rank's
        records.  A bounded log, or ``expand=True`` (the caller may record
        between two items), stores each item as its own record as it comes
        in instead.
        """
        rank = head[0][3]
        if expand or self.capacity is not None or rank >= len(self.logs):
            return _Expanding(self, rank, head, width)
        values: List[Any] = []
        self.logs[rank].extend((BATCH, head, width, values))
        return values

    def complete(self, name: str, rank: int, tid: int, start: float, end: float,
                 cat: str = "", flow: Optional[int] = None,
                 args: Optional[Dict[str, Any]] = None) -> SpanEvent:
        """Record an already-finished span."""
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

    def _read(self, log: List[Any]) -> List[Any]:
        """``log``'s events, its records replaced by their objects."""
        evs = [_event(r) if type(r) is tuple else r for r in _entries(log)]
        log[:] = evs
        if isinstance(log, _Ring):
            log.count, log.start = len(evs), 0
        return evs

    def events(self, rank: Optional[int] = None) -> List[Any]:
        """All recorded events, time-sorted (stable across ranks)."""
        logs = self.logs if rank is None else [self.logs[rank]]
        evs = [ev for log in logs for ev in self._read(log)]
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
        return sum(1 for log in self.logs for _ in _entries(log))

    @property
    def nranks(self) -> int:
        return len(self.logs)

    def makespan(self) -> float:
        """Largest end/ts across all events (0 when empty)."""
        out = 0.0
        for log in self.logs:
            for e in self._read(log):
                out = max(out, e.end if isinstance(e, SpanEvent) else e.ts)
        return out


class Telemetry:
    """The bundle a backend carries: one event bus and its binding.

    Create one per execution and attach it with
    ``backend.attach_telemetry(telemetry)`` (or pass ``telemetry=`` to the
    backend constructor); :meth:`bind` is called by the backend and wires
    the bus clock to the backend's virtual-time engine.

    ``events=False`` is bus capacity 0: no hook is armed and nothing is
    recorded.  It goes with ``telemetry.metrics_only_tax``, which hostbench
    times (ROADMAP, the ``benchmark`` item).
    """

    def __init__(self, nranks: int = 1, capacity: Optional[int] = 65536,
                 events: bool = True) -> None:
        self.bus = EventBus(nranks=nranks, capacity=capacity if events else 0)
        self._bound_backend: Optional[Any] = None
        #: Workers of each rank of the bound backend.  No export carries
        #: it: a bus read back from a file has none.
        self.lanes: Optional[List[int]] = None

    def bind(self, backend: Any) -> None:
        """Wire the bus to ``backend``'s engine clock, rank and lane count."""
        self._bound_backend = backend
        engine = backend.engine
        # Not a lambda: the ``now`` property is the only Python-level call.
        self.bus.clock = partial(getattr, engine, "now")
        self.bus.ensure_ranks(backend.nranks)
        self.lanes = [backend.cluster.node.workers] * backend.nranks

    @property
    def backend(self) -> Optional[Any]:
        return self._bound_backend


@dataclass
class RecordedRun:
    """One backend captured by :func:`capture`."""

    telemetry: Telemetry
    backend: Any
    graphs: List[str]

    @property
    def label(self) -> str:
        name = getattr(self.backend, "name", "backend")
        graphs = ",".join(self.graphs) or "?"
        return f"{graphs}@{name}(nranks={self.backend.nranks})"


@contextmanager
def capture(capacity: Optional[int] = None) -> Iterator[List[RecordedRun]]:
    """Attach a fresh Telemetry to every backend bound inside the block,
    recording unbounded unless ``capacity`` bounds each rank's log.

    Observes :class:`~repro.core.graph.Executable` construction (the
    construction-observer hook of :mod:`repro.core.graph`), so scripts
    need no cooperation; one
    :class:`RecordedRun` is appended per distinct backend, in binding
    order.
    """
    from repro.core.graph import (
        add_construction_observer,
        remove_construction_observer,
    )

    runs: List[RecordedRun] = []
    by_backend: Dict[int, RecordedRun] = {}

    def observer(kind: str, obj: Any) -> None:
        if kind != "executable":
            return
        backend = obj.backend
        run = by_backend.get(id(backend))
        if run is None:
            tel = Telemetry(nranks=backend.nranks, capacity=capacity)
            backend.attach_telemetry(tel)
            run = RecordedRun(tel, backend, [])
            by_backend[id(backend)] = run
            runs.append(run)
        run.graphs.append(obj.graph.name)

    add_construction_observer(observer)
    try:
        yield runs
    finally:
        remove_construction_observer(observer)
