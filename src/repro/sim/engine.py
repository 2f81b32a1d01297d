"""Discrete-event engine: a priority queue of timestamped callbacks.

The engine is intentionally minimal -- everything else (workers, NICs,
schedulers) is built out of ``schedule``/``run``.  Determinism is guaranteed
by breaking time ties with a monotonically increasing sequence number, so two
events at the same virtual time always fire in the order they were scheduled.

The heap entry *is* the event (this loop is the host-time hot path of every
experiment, and there is exactly one of it):

- a single event is the tuple ``(time, seq, fn, args)``;
- a same-time burst from :meth:`Engine.schedule_batch` is
  ``(time, seq, None, calls)``, where ``calls`` is a list of ``(fn, args)``
  pairs whose members own the consecutive sequence numbers ``seq``,
  ``seq + 1``, ... -- one heap push for the whole burst (e.g. the local
  fan-out of a broadcast), and no other event can order between two of
  its members, so running the burst contiguously *is* ``(time, seq)``
  order.

``seq`` is unique, so every heap comparison is a C-level compare of
``(time, seq)`` and never reaches ``fn``.  Nothing allocates a per-event
object and nothing can be cancelled: a scheduled event runs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: Engine kinds :meth:`repro.sim.cluster.Cluster.with_engine` accepts.  There
#: is one event loop; the name and the factory stay because the host-time
#: benchmark (``hostbench/layers.py``) reports one cell per kind.
ENGINE_KINDS = ("seq",)


class EngineError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


class Engine:
    """Virtual clock plus an event heap.

    >>> eng = Engine()
    >>> hits = []
    >>> eng.schedule(1.0, hits.append, "a")
    >>> eng.schedule(0.5, hits.append, "b")
    >>> eng.run()
    >>> hits
    ['b', 'a']
    >>> eng.now
    1.0
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any, Any]] = []
        #: Current virtual time in seconds.  A plain attribute, not a
        #: property: every layer reads the clock several times per event.
        #: Only the engine's own loops write it.
        self.now: float = 0.0
        self._seq: int = 0
        self._events_processed: int = 0
        self._running: bool = False
        # The one periodic hook: when ``on_checkpoint`` is set and
        # ``checkpoint_every`` > 0, ``run`` calls ``on_checkpoint(now,
        # events_processed)`` at least every that many events.  Disabled
        # (the default) it costs one integer truthiness check per heap
        # entry -- this loop is the host-time hot path, so the hook must
        # stay invisible when off.  Installed by
        # :meth:`repro.runtime.base.Backend.attach_checkpointer`.
        self.on_checkpoint: Optional[Callable[[float, int], None]] = None
        self.checkpoint_every: int = 0

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (burst members counted singly)."""
        return sum(1 if fn is not None else len(args)
                   for _, _, fn, args in self._heap)

    def schedule_at(self, time: float, fn: Callable[..., Any],
                    *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise EngineError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))

    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise EngineError(f"negative delay {delay}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args))

    def schedule_batch(
        self,
        delay: float,
        calls: Sequence[Tuple[Callable[..., Any], tuple]],
    ) -> None:
        """Schedule a burst of ``(fn, args)`` calls at one timestamp.

        All calls fire at ``now + delay`` in list order, exactly as if each
        had been passed to :meth:`schedule` in sequence -- but the whole
        burst costs one heap push.  The engine keeps its own copy of
        ``calls``, so the caller may reuse or mutate its list afterwards.
        """
        if delay < 0:
            raise EngineError(f"negative delay {delay}")
        calls = list(calls)
        if not calls:
            return
        seq = self._seq
        self._seq = seq + len(calls)
        heappush(self._heap, (self.now + delay, seq, None, calls))

    def empty(self) -> bool:
        """True when no events remain."""
        return not self._heap

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is drained."""
        heap = self._heap
        if not heap:
            return False
        time, seq, fn, args = heappop(heap)
        if fn is None:
            fn, member_args = args[0]
            if len(args) > 1:
                heappush(heap, (time, seq + 1, None, args[1:]))
            args = member_args
        self.now = time
        self._events_processed += 1
        fn(*args)
        return True

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
            Safety valve: stop after this many events.  A stop inside a
            burst requeues the burst's unexecuted tail under its own
            sequence numbers, so the next ``run`` continues in order.
        """
        if self._running:
            raise EngineError("re-entrant Engine.run()")
        self._running = True
        heap = self._heap
        stop = None if max_events is None else self._events_processed + max_events
        on_checkpoint = self.on_checkpoint
        cp_every = self.checkpoint_every if on_checkpoint is not None else 0
        cp_next = self._events_processed + cp_every
        try:
            while heap:
                if cp_every and self._events_processed >= cp_next:
                    on_checkpoint(self.now, self._events_processed)
                    cp_next = self._events_processed + cp_every
                time = heap[0][0]
                if until is not None and time > until:
                    self.now = until
                    return
                if stop is not None and self._events_processed >= stop:
                    return
                _, seq, fn, args = heappop(heap)
                self.now = time
                if fn is not None:
                    self._events_processed += 1
                    fn(*args)
                    continue
                i = 0
                m = len(args)
                while i < m:
                    if stop is not None and self._events_processed >= stop:
                        heappush(heap, (time, seq + i, None, args[i:]))
                        return
                    fn, member_args = args[i]
                    i += 1
                    self._events_processed += 1
                    try:
                        fn(*member_args)
                    except BaseException:
                        # Keep the unexecuted tail queued so an exception
                        # does not silently drop events.
                        if i < m:
                            heappush(heap, (time, seq + i, None, args[i:]))
                        raise
        finally:
            self._running = False

    def reset(self) -> None:
        """Clear all state; clock back to zero."""
        self._heap.clear()
        self.now = 0.0
        self._seq = 0
        self._events_processed = 0
