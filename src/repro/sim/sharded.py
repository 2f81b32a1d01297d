"""Rank-sharded event loops with conservative time-window synchronization.

The sequential :class:`~repro.sim.engine.Engine` holds every rank's events
in one heap, so the simulator's own host cost grows with total event volume
regardless of how "distributed" the simulated machine is.  This module
shards the event loop by simulated rank, the way TaskTorrent-style
rank-local runtimes shard real execution:

- every shard owns a private event heap holding the events of its ranks
  (``shard = rank % nshards``; unranked events live in shard 0);
- shards advance through **conservative time windows**: a window opens at
  ``t0 = min(shard clocks)`` and closes at ``t0 + lookahead``, where the
  lookahead is derived from the *minimum network latency* of the machine
  being simulated.  Within a window no event can schedule a cross-rank
  event at an earlier time inside the same window (a message needs at
  least one latency to arrive), which is the Chandy--Misra--Bryant safety
  argument -- with a static latency lower bound, no null messages are
  needed.

Determinism is stronger than CMB requires: because all shards of this
executor share one address space (runtime state such as worker pools, the
NIC model, and counters is reachable from any event), the window executor
*additionally* replays the exact global ``(time, seq)`` order inside every
window -- events are drained from the shard heaps into one batch, sorted
once (a C-level sort), and merged with any events that land inside the
open window while it executes.  Results are therefore bit-for-bit
identical to the sequential engine on every workload, which the
equivalence suite (``tests/test_engine_parity.py``) asserts for all four
paper applications.  The window size is then a pure batching knob: the
engine grows it adaptively above the lookahead floor when batches run
small, because safety does not depend on it.

Shards never cross a process boundary (``docs/simulator.md`` says why
there is no multiprocess engine).  Host parallelism is sweep-level: whole
simulations run in forked worker processes via :mod:`repro.bench.parallel`.

Shard-safety contract: every scheduling call reachable from a send/fire
path must pass ``rank=`` so the event lands on the owning shard --
``repro.analysis.shardsafe`` audits this statically (rule SHD008, run it
via ``python -m repro.analysis shardsafe --audit-runtime``).  A call that
is *deliberately* unranked (global bookkeeping that belongs to shard 0,
e.g. the fence barrier in :mod:`repro.runtime.world`) carries a
``# shard-safe: unranked-ok`` annotation acknowledging it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.engine import Engine, EngineError, Event

#: Engine kinds accepted by :func:`create_engine` and the bench CLI.
ENGINE_KINDS = ("seq", "sharded")

#: Adaptive window controller: grow the window when batches are smaller
#: than this, shrink when they exceed the upper bound.
_MIN_BATCH = 32
_MAX_BATCH = 2048


class ShardedEngine(Engine):
    """Engine-compatible executor with per-rank shard heaps.

    Parameters
    ----------
    nshards:
        Number of shard heaps.  ``None`` defers to :meth:`bind_topology`
        (the :class:`~repro.sim.cluster.Cluster` binds one shard per rank).
    lookahead:
        Conservative window width in virtual seconds.  ``None`` defers to
        :meth:`bind_topology`, which uses the machine's minimum network
        latency -- the static lower bound on cross-rank event distance.
    """

    def __init__(self, nshards: Optional[int] = None,
                 lookahead: Optional[float] = None) -> None:
        super().__init__()
        if nshards is not None and nshards < 1:
            raise EngineError(f"nshards must be >= 1, got {nshards}")
        if lookahead is not None and lookahead < 0:
            raise EngineError(f"negative lookahead {lookahead}")
        self.nshards = nshards if nshards is not None else 1
        self._nshards_explicit = nshards is not None
        self.lookahead = lookahead
        self._shards: List[List[Tuple[float, int, Any]]] = [
            [] for _ in range(self.nshards)
        ]
        # Events that land inside the currently executing window.
        self._incoming: List[Tuple[float, int, Any]] = []
        self._window_end: float = float("-inf")
        self._adaptive: float = 0.0
        # Observability: scheduling pressure per shard + window statistics.
        self.shard_scheduled: List[int] = [0] * self.nshards
        self.windows_executed: int = 0
        self.window_deferred: int = 0
        self.max_batch: int = 0
        # Health hook: when set, ``run`` calls ``on_window(stats)`` after
        # every conservative window completes, with a dict of that
        # window's vitals (see :meth:`_window_stats`).  Per-shard event
        # counting only happens while the hook is set, so the default
        # costs one ``is None`` check per window.
        self.on_window: Optional[Callable[[dict], None]] = None
        # Early rank-local shutdown: a drained shard whose ranks the
        # termination ledger reports quiescent is retired from the window
        # scans until something schedules onto it again (see
        # :meth:`_retire_quiescent`).  Requires :meth:`bind_runtime`.
        self._runtime: Any = None
        self._quiescent: List[bool] = [False] * self.nshards
        self._nquiescent: int = 0
        self.windows_skipped_quiescent: int = 0

    # --------------------------------------------------------------- binding

    def bind_topology(self, nranks: int, min_latency: float) -> None:
        """Bind shard count and lookahead to a simulated machine.

        Called by :class:`~repro.sim.cluster.Cluster` at construction: one
        shard per simulated rank (unless an explicit ``nshards`` was given)
        and the conservative lookahead floor set to the network's one-way
        latency.  Already-queued events keep their shard assignment.
        """
        if not self._nshards_explicit and nranks > self.nshards:
            self._shards.extend([] for _ in range(nranks - self.nshards))
            self.shard_scheduled.extend([0] * (nranks - self.nshards))
            self._quiescent.extend([False] * (nranks - self.nshards))
            self.nshards = nranks
        if self.lookahead is None:
            self.lookahead = min_latency

    def bind_runtime(self, backend: Any) -> None:
        """Bind the owning :class:`~repro.runtime.base.Backend` (called
        from its constructor).  Gives the engine access to the termination
        detector's per-rank ledger, which powers early rank-local shutdown
        of drained shards."""
        self._runtime = backend

    @property
    def shard_clocks(self) -> List[float]:
        """Per-shard safe virtual times.

        The in-process executor advances every shard to the shared window
        fence (shards never run ahead of the fence because total order is
        preserved), so all clocks equal the engine clock.
        """
        return [self.now] * self.nshards

    @property
    def shard_pending(self) -> List[int]:
        """Number of queued entries per shard heap."""
        return [len(h) for h in self._shards]

    # ------------------------------------------------------------ scheduling

    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any,
        rank: Optional[int] = None,
    ) -> Event:
        if time < self.now:
            raise EngineError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args)
        if time <= self._window_end:
            heappush(self._incoming, (time, seq, ev))
            self.window_deferred += 1
        else:
            s = rank % self.nshards if rank is not None else 0
            if self._quiescent[s]:
                self._wake(s)
            heappush(self._shards[s], (time, seq, ev))
            self.shard_scheduled[s] += 1
        return ev

    def _push_entry(self, entry: Tuple[float, int, Any],
                    rank: Optional[int] = None) -> None:
        if entry[0] <= self._window_end:
            heappush(self._incoming, entry)
            self.window_deferred += 1
        else:
            s = rank % self.nshards if rank is not None else 0
            if self._quiescent[s]:
                self._wake(s)
            heappush(self._shards[s], entry)
            self.shard_scheduled[s] += 1

    # ----------------------------------------------------------- heap access

    @staticmethod
    def _purge_top(heap: List[Tuple[float, int, Any]]):
        """Drop cancelled entries off a heap top; return the live top."""
        while heap:
            payload = heap[0][2]
            if type(payload) is list:
                if any(not e.cancelled for e in payload):
                    return heap[0]
            elif not payload.cancelled:
                return heap[0]
            heappop(heap)
        return None

    def _min_top(self):
        """Globally next entry across all shard heaps (cancelled skipped).

        Retired (quiescent) shards are skipped: their heaps are empty by
        construction, and any schedule onto one wakes it first."""
        best = None
        quiescent = self._quiescent
        for s, heap in enumerate(self._shards):
            if quiescent[s]:
                continue
            top = self._purge_top(heap)
            if top is not None and (best is None or top < best):
                best = top
        return best

    # --------------------------------------------- quiescent-shard shutdown

    def _wake(self, s: int) -> None:
        """Un-retire shard ``s`` (something scheduled onto it again)."""
        self._quiescent[s] = False
        self._nquiescent -= 1

    def _retire_quiescent(self) -> None:
        """Between windows, retire shards that are provably done.

        A shard is retired when its heap is drained *and* every rank it
        owns is quiescent per the termination detector's per-rank ledger
        (tasks created == tasks retired on that rank; in-flight messages
        to a rank are entries in its shard heap, so an empty heap plus a
        balanced ledger means no pending work can originate there).
        Retired shards drop out of the per-window heap scans -- the
        rank-local analogue of the global termination detector's
        quiescence -- until a cross-rank send schedules onto them again,
        which wakes them.  Purely a host-cost optimization: event order
        is untouched, so parity with the ``seq`` engine is preserved.
        """
        rt = self._runtime
        if rt is None or self.nshards < 2:
            return
        pending = rt.termination.pending_tasks_by_rank
        if pending is None:
            return
        nranks = len(pending)
        nshards = self.nshards
        quiescent = self._quiescent
        for s, heap in enumerate(self._shards):
            if quiescent[s] or heap:
                continue
            if all(pending[r] == 0 for r in range(s, nranks, nshards)):
                quiescent[s] = True
                self._nquiescent += 1

    def empty(self) -> bool:
        if self._purge_top(self._incoming) is not None:
            return False
        return self._min_top() is None

    @property
    def pending(self) -> int:
        total = 0
        for heap in self._shards:
            for _, _, payload in heap:
                total += len(payload) if type(payload) is list else 1
        for _, _, payload in self._incoming:
            total += len(payload) if type(payload) is list else 1
        return total

    # ------------------------------------------------------------- execution

    def step(self) -> bool:
        for heap in self._shards:
            self._purge_top(heap)
        best_heap = None
        for heap in self._shards:
            if heap and (best_heap is None or heap[0] < best_heap[0]):
                best_heap = heap
        if best_heap is None:
            return False
        time, seq, payload = heappop(best_heap)
        if type(payload) is list:
            i = 0
            while payload[i].cancelled:  # _purge_top guarantees a live member
                i += 1
            ev = payload[i]
            rest = payload[i + 1:]
            if rest:
                heappush(best_heap, (time, rest[0].seq, rest))
        else:
            ev = payload
        self.now = time
        self._events_processed += 1
        ev.fn(*ev.args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if self._running:
            raise EngineError("re-entrant Engine.run()")
        self._running = True
        shards = self._shards
        incoming = self._incoming
        n = 0
        on_window = self.on_window
        on_heartbeat = self.on_heartbeat
        hb_every = self.heartbeat_every if on_heartbeat is not None else 0
        hb_next = self._events_processed + hb_every
        on_checkpoint = self.on_checkpoint
        cp_every = self.checkpoint_every if on_checkpoint is not None else 0
        cp_next = self._events_processed + cp_every
        events_by_shard: List[int] = []
        ev_base = def_base = 0
        try:
            while True:
                top = self._min_top()
                if top is None:
                    return
                t0 = top[0]
                if until is not None and t0 > until:
                    self.now = until
                    return
                if max_events is not None and n >= max_events:
                    return
                span = self.lookahead or 0.0
                if self._adaptive > span:
                    span = self._adaptive
                window_end = t0 + span
                if until is not None and window_end > until:
                    window_end = until
                # ---- collect: drain every active shard's window slice
                # (retired shards are empty; their scans are skipped).
                quiescent = self._quiescent
                batch: List[Tuple[float, int, Any]] = []
                if on_window is not None:
                    # Per-shard attribution only while profiled: count the
                    # events each shard contributed to this window.
                    ev_base = self._events_processed
                    def_base = self.window_deferred
                    events_by_shard = [0] * self.nshards
                    for s, heap in enumerate(shards):
                        if quiescent[s]:
                            continue
                        drained = 0
                        while heap and heap[0][0] <= window_end:
                            entry = heappop(heap)
                            payload = entry[2]
                            drained += (len(payload) if type(payload) is list
                                        else 1)
                            batch.append(entry)
                        events_by_shard[s] = drained
                else:
                    for s, heap in enumerate(shards):
                        if quiescent[s]:
                            continue
                        while heap and heap[0][0] <= window_end:
                            batch.append(heappop(heap))
                batch.sort()
                self._window_end = window_end
                self.windows_executed += 1
                self.windows_skipped_quiescent += self._nquiescent
                m = len(batch)
                if m > self.max_batch:
                    self.max_batch = m
                # Adapt the batching span (a pure performance knob: safety
                # and ordering never depend on the window width).
                if m < _MIN_BATCH:
                    self._adaptive = max(span * 2.0, 1e-9)
                elif m > _MAX_BATCH and self._adaptive > (self.lookahead or 0.0):
                    self._adaptive = span * 0.5
                # ---- execute: exact (time, seq) merge of the sorted batch
                # with events landing inside the open window.
                i = 0
                try:
                    while True:
                        if max_events is not None and n >= max_events:
                            return
                        if i < m:
                            entry = batch[i]
                            if incoming and incoming[0] < entry:
                                entry = heappop(incoming)
                            else:
                                i += 1
                        elif incoming:
                            entry = heappop(incoming)
                        else:
                            break
                        time, seq, payload = entry
                        if type(payload) is list:
                            j = 0
                            mm = len(payload)
                            while j < mm:
                                ev = payload[j]
                                j += 1
                                if ev.cancelled:
                                    continue
                                if max_events is not None and n >= max_events:
                                    tail = payload[j - 1:]
                                    if quiescent[0]:
                                        self._wake(0)
                                    heappush(shards[0], (time, tail[0].seq, tail))
                                    return
                                self.now = time
                                self._events_processed += 1
                                n += 1
                                try:
                                    ev.fn(*ev.args)
                                except BaseException:
                                    tail = payload[j:]
                                    if tail:
                                        if quiescent[0]:
                                            self._wake(0)
                                        heappush(shards[0], (time, tail[0].seq, tail))
                                    raise
                        else:
                            if payload.cancelled:
                                continue
                            self.now = time
                            self._events_processed += 1
                            n += 1
                            payload.fn(*payload.args)
                finally:
                    # Preserve whatever the window did not execute (early
                    # return on max_events, or an exception unwinding).
                    if (i < m or incoming) and quiescent[0]:
                        self._wake(0)
                    for entry in batch[i:]:
                        heappush(shards[0], entry)
                    self._window_end = float("-inf")
                    while incoming:
                        heappush(shards[0], heappop(incoming))
                self._retire_quiescent()
                if on_window is not None:
                    on_window(self._window_stats(
                        t0, window_end, m, events_by_shard,
                        self._events_processed - ev_base,
                        self.window_deferred - def_base))
                if hb_every and self._events_processed >= hb_next:
                    on_heartbeat(self.now, self._events_processed)
                    hb_next = self._events_processed + hb_every
                # Checkpoints land on conservative-window boundaries: the
                # heaps are between windows here, so the snapshot captures
                # a consistent global cut of the simulation.
                if cp_every and self._events_processed >= cp_next:
                    on_checkpoint(self.now, self._events_processed)
                    cp_next = self._events_processed + cp_every
        finally:
            self._running = False
            self._window_end = float("-inf")

    def _window_stats(
        self, t0: float, window_end: float, batch: int,
        events_by_shard: List[int], executed: int, deferred: int,
    ) -> dict:
        """One completed window's vitals, for the ``on_window`` hook.

        Heap depths and the clock-skew gauge are sampled *after* the
        window: depth is queued entries left per shard, skew is the
        spread of the shard heaps' next-event times -- how far apart the
        ranks' frontiers sit, i.e. how much conservative synchronization
        costs right now.
        """
        tops = [h[0][0] for h in self._shards if h]
        return {
            "window": self.windows_executed,
            "t0": t0,
            "end": window_end,
            "width": window_end - t0,
            "lookahead": self.lookahead or 0.0,
            "batch": batch,
            "executed": executed,
            "deferred": deferred,
            "events_by_shard": events_by_shard,
            "heap_depths": [len(h) for h in self._shards],
            "clock_skew": (max(tops) - min(tops)) if len(tops) > 1 else 0.0,
            "quiescent_shards": self._nquiescent,
            "windows_skipped_quiescent": self.windows_skipped_quiescent,
        }

    # ------------------------------------------------------------- snapshot

    def dump_state(self) -> dict:
        """Physical engine state (sharded variant of
        :meth:`repro.sim.engine.Engine.dump_state`).

        Checkpoints fire on conservative-window boundaries, where
        ``_incoming`` is empty and ``_window_end`` is ``-inf``; both are
        captured anyway so the snapshot is complete wherever it is taken.
        """
        return {
            "kind": "sharded",
            "now": self.now,
            "seq": self._seq,
            "events": self._events_processed,
            "nshards": self.nshards,
            "shards": [list(h) for h in self._shards],
            "incoming": list(self._incoming),
            "adaptive": self._adaptive,
            "shard_scheduled": list(self.shard_scheduled),
            "windows_executed": self.windows_executed,
            "window_deferred": self.window_deferred,
            "max_batch": self.max_batch,
            "quiescent": list(self._quiescent),
            "windows_skipped_quiescent": self.windows_skipped_quiescent,
        }

    def load_state(self, state: dict) -> None:
        if state.get("kind") != "sharded":
            raise EngineError(
                f"engine state kind {state.get('kind')!r} does not match "
                "this sharded engine"
            )
        if state["nshards"] != self.nshards:
            raise EngineError(
                f"checkpoint has {state['nshards']} shards, engine has "
                f"{self.nshards}; resume with the same topology"
            )
        self.now = state["now"]
        self._seq = state["seq"]
        self._events_processed = state["events"]
        self._shards = [list(h) for h in state["shards"]]
        self._incoming = list(state["incoming"])
        self._window_end = float("-inf")
        self._adaptive = state["adaptive"]
        self.shard_scheduled = list(state["shard_scheduled"])
        self.windows_executed = state["windows_executed"]
        self.window_deferred = state["window_deferred"]
        self.max_batch = state["max_batch"]
        self._quiescent = list(state.get("quiescent",
                                         [False] * self.nshards))
        self._nquiescent = sum(self._quiescent)
        self.windows_skipped_quiescent = state.get(
            "windows_skipped_quiescent", 0)

    def reset(self) -> None:
        super().reset()
        for heap in self._shards:
            heap.clear()
        self._incoming.clear()
        self._window_end = float("-inf")
        self._adaptive = 0.0
        self.shard_scheduled = [0] * self.nshards
        self.windows_executed = 0
        self.window_deferred = 0
        self.max_batch = 0
        self._quiescent = [False] * self.nshards
        self._nquiescent = 0
        self.windows_skipped_quiescent = 0


def create_engine(
    kind: str = "seq",
    *,
    nranks: Optional[int] = None,
    nshards: Optional[int] = None,
    lookahead: Optional[float] = None,
) -> Engine:
    """Engine factory behind the bench CLI's ``--engine`` flag.

    - ``seq``: the sequential single-heap :class:`Engine`.
    - ``sharded``: :class:`ShardedEngine`; shard count defaults to one per
      rank (bound by the cluster if ``nranks`` is not given here).
    """
    if kind not in ENGINE_KINDS:
        raise ValueError(f"unknown engine kind {kind!r}; known: {ENGINE_KINDS}")
    if kind == "seq":
        return Engine()
    return ShardedEngine(nshards=nshards if nshards is not None else nranks,
                         lookahead=lookahead)
