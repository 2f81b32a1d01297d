"""Discrete-event engine: a priority queue of timestamped callbacks.

The engine is intentionally minimal -- everything else (workers, NICs,
schedulers) is built out of ``schedule``/``run``.  Determinism is guaranteed
by breaking time ties with a monotonically increasing sequence number, so two
events at the same virtual time always fire in the order they were scheduled.

Performance notes (this is the host-time hot path of every experiment):

- The heap stores plain ``(time, seq, payload)`` tuples, so every heap
  comparison is a C-level tuple compare.  Storing :class:`Event` objects
  directly would route each of the O(log n) comparisons per push/pop
  through a Python-level ``__lt__``, which dominated host time before.
- ``run`` inlines the pop/dispatch loop instead of calling :meth:`step`
  per event.
- :meth:`schedule_batch` amortizes ``heappush`` for same-timestamp bursts
  (e.g. the local fan-out of a broadcast): one heap entry carries the
  whole burst, and consecutive sequence numbers guarantee the burst is
  totally ordered against every other event.

``rank`` hints: callers that know which simulated rank an event belongs to
pass ``rank=`` so that sharded engines (:mod:`repro.sim.sharded`) can route
the event to the rank's shard.  The sequential engine accepts and ignores
the hint.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Sequence, Tuple


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, seq)``; ``fn`` and ``args`` are excluded
    from the ordering so arbitrary callables can be scheduled.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple = (),
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    # Ordering on (time, seq) kept for API compatibility; the engine itself
    # orders raw tuples and never compares Event objects.
    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __le__(self, other: "Event") -> bool:
        return (self.time, self.seq) <= (other.time, other.seq)

    def __gt__(self, other: "Event") -> bool:
        return (self.time, self.seq) > (other.time, other.seq)

    def __ge__(self, other: "Event") -> bool:
        return (self.time, self.seq) >= (other.time, other.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time, self.seq) == (other.time, other.seq)

    def __hash__(self) -> int:
        return hash((self.time, self.seq))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}, seq={self.seq}{state})"


class EngineError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


#: Heap payloads are either one Event or a list of Events (a same-timestamp
#: burst from :meth:`Engine.schedule_batch`; consecutive seqs, sorted).


class Engine:
    """Virtual clock plus an event heap.

    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.schedule(1.0, hits.append, "a")
    >>> _ = eng.schedule(0.5, hits.append, "b")
    >>> eng.run()
    >>> hits
    ['b', 'a']
    >>> eng.now
    1.0
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        #: Current virtual time in seconds.  A plain attribute, not a
        #: property: every layer reads the clock several times per event.
        #: Only the engine's own loops write it.
        self.now: float = 0.0
        self._seq: int = 0
        self._events_processed: int = 0
        self._running: bool = False
        # Heartbeat hook: when ``on_heartbeat`` is set and
        # ``heartbeat_every`` > 0, ``run`` calls
        # ``on_heartbeat(now, events_processed)`` at least every that many
        # events.  Disabled (the default) it costs one integer truthiness
        # check per heap entry -- this loop is the host-time hot path, so
        # the hook must stay invisible when off.
        self.on_heartbeat: Optional[Callable[[float, int], None]] = None
        self.heartbeat_every: int = 0
        # Checkpoint hook: same contract and same hoisted-local pattern as
        # the heartbeat -- ``run`` calls ``on_checkpoint(now,
        # events_processed)`` at least every ``checkpoint_every`` events,
        # and the disabled default costs one integer truthiness check per
        # heap entry.  Installed by
        # :meth:`repro.runtime.base.Backend.attach_checkpointer`.
        self.on_checkpoint: Optional[Callable[[float, int], None]] = None
        self.checkpoint_every: int = 0

    @property
    def events_processed(self) -> int:
        """Total number of (non-cancelled) events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return sum(
            len(payload) if type(payload) is list else 1
            for _, _, payload in self._heap
        )

    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any,
        rank: Optional[int] = None,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``.

        ``rank`` is a shard-routing hint for parallel engines; the
        sequential engine ignores it.
        """
        if time < self.now:
            raise EngineError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, ev))
        return ev

    def schedule(
        self, delay: float, fn: Callable[..., Any], *args: Any,
        rank: Optional[int] = None,
    ) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise EngineError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, fn, *args, rank=rank)

    def schedule_batch(
        self,
        delay: float,
        calls: Sequence[Tuple[Callable[..., Any], tuple]],
        rank: Optional[int] = None,
    ) -> List[Event]:
        """Schedule a burst of ``(fn, args)`` calls at one timestamp.

        All calls fire at ``now + delay`` in list order, exactly as if each
        had been passed to :meth:`schedule` in sequence -- but the whole
        burst costs one heap push.  Consecutive sequence numbers make the
        equivalence exact: no other event can order between two burst
        members, so executing the burst contiguously *is* ``(time, seq)``
        order.  Returns the burst's events (individually cancellable).
        """
        if delay < 0:
            raise EngineError(f"negative delay {delay}")
        time = self.now + delay
        seq = self._seq
        events = [Event(time, seq + i, fn, args) for i, (fn, args) in enumerate(calls)]
        if not events:
            return events
        self._seq = seq + len(events)
        self._push_entry((time, seq, events))
        return events

    def _push_entry(self, entry: Tuple[float, int, Any]) -> None:
        """Insert a ready-made heap entry (single event or burst)."""
        heappush(self._heap, entry)

    def empty(self) -> bool:
        """True when no runnable (non-cancelled) events remain."""
        heap = self._heap
        while heap:
            payload = heap[0][2]
            if type(payload) is list:
                if any(not e.cancelled for e in payload):
                    return False
            elif not payload.cancelled:
                return False
            heappop(heap)
        return True

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is drained."""
        heap = self._heap
        while heap:
            time, seq, payload = heappop(heap)
            if type(payload) is list:
                i = 0
                n = len(payload)
                while i < n and payload[i].cancelled:
                    i += 1
                if i == n:
                    continue
                ev = payload[i]
                rest = payload[i + 1:]
                if rest:
                    heappush(heap, (time, rest[0].seq, rest))
            else:
                ev = payload
                if ev.cancelled:
                    continue
            self.now = time
            self._events_processed += 1
            ev.fn(*ev.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once virtual time would exceed this bound (the clock is
            advanced to ``until`` if events remain beyond it).
        max_events:
            Safety valve: stop after this many events.
        """
        if self._running:
            raise EngineError("re-entrant Engine.run()")
        self._running = True
        heap = self._heap
        n = 0
        on_heartbeat = self.on_heartbeat
        hb_every = self.heartbeat_every if on_heartbeat is not None else 0
        hb_next = self._events_processed + hb_every
        on_checkpoint = self.on_checkpoint
        cp_every = self.checkpoint_every if on_checkpoint is not None else 0
        cp_next = self._events_processed + cp_every
        try:
            while heap:
                if hb_every and self._events_processed >= hb_next:
                    on_heartbeat(self.now, self._events_processed)
                    hb_next = self._events_processed + hb_every
                if cp_every and self._events_processed >= cp_next:
                    on_checkpoint(self.now, self._events_processed)
                    cp_next = self._events_processed + cp_every
                time, seq, payload = heap[0]
                if until is not None and time > until:
                    self.now = until
                    return
                if type(payload) is list:
                    heappop(heap)
                    i = 0
                    m = len(payload)
                    while i < m:
                        ev = payload[i]
                        i += 1
                        if ev.cancelled:
                            continue
                        if max_events is not None and n >= max_events:
                            # Requeue the unexecuted tail (it keeps its
                            # original seqs, so ordering is unchanged).
                            tail = payload[i - 1:]
                            heappush(heap, (time, tail[0].seq, tail))
                            return
                        self.now = time
                        self._events_processed += 1
                        n += 1
                        try:
                            ev.fn(*ev.args)
                        except BaseException:
                            # Keep the unexecuted tail queued so an
                            # exception does not silently drop events.
                            tail = payload[i:]
                            if tail:
                                heappush(heap, (time, tail[0].seq, tail))
                            raise
                else:
                    if payload.cancelled:
                        heappop(heap)
                        continue
                    if max_events is not None and n >= max_events:
                        return
                    heappop(heap)
                    self.now = time
                    self._events_processed += 1
                    n += 1
                    payload.fn(*payload.args)
        finally:
            self._running = False

    # ------------------------------------------------------------- snapshot

    def dump_state(self) -> dict:
        """Physical engine state for heap-byte checkpoints (format v2).

        The heap entries themselves are returned live -- the caller
        (:meth:`repro.durability.Checkpointer.snapshot`) serializes them
        through the runtime registry so runtime objects pickle by
        reference.  A list copy of a heap is itself a valid heap.
        """
        return {
            "kind": "seq",
            "now": self.now,
            "seq": self._seq,
            "events": self._events_processed,
            "heap": list(self._heap),
        }

    def load_state(self, state: dict) -> None:
        """Restore the engine to a :meth:`dump_state` snapshot."""
        if state.get("kind") != "seq":
            raise EngineError(
                f"engine state kind {state.get('kind')!r} does not match "
                "this sequential engine"
            )
        self.now = state["now"]
        self._seq = state["seq"]
        self._events_processed = state["events"]
        self._heap = list(state["heap"])

    def reset(self) -> None:
        """Clear all state; clock back to zero."""
        self._heap.clear()
        self.now = 0.0
        self._seq = 0
        self._events_processed = 0
