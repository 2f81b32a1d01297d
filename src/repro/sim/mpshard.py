"""True shared-nothing multiprocess engine (``create_engine("mp")``).

:class:`MpShardedEngine` executes the rank-sharded event loop of
:class:`~repro.sim.sharded.ShardedEngine` across *forked worker
processes*: worker ``k`` owns shards ``{s : s % P == k}`` and runs their
events in its own address space, so the Python interpreter of every
worker advances in parallel.  Three mechanisms make the result
bit-for-bit identical to the sequential engine:

**Canonical event tags.**  The sequential engine breaks time ties with a
global sequence number -- state no single worker can maintain.  Every
event instead carries a 3-int *tag* that sorts identically to the global
seq among equal-time events: events queued before the run keep their
build seq as ``(-1, 0, seq)``; an event created during window ``w`` by
the parent at global window position ``p`` as its ``j``-th
seq-consuming call is tagged ``(w, p, j)``.  Workers assign tags
provisionally (the parent's *local* stream index substitutes for ``p``;
local execution order equals global order restricted to a worker, so the
substitution is order-preserving) and rewrite them to the global
positions the coordinator hands back after merging the window -- a
strictly monotone tag map, so the heap invariant survives an in-place
rewrite.

**Conservative windows with deferred communication.**  A window spans
``[t0, t0 + F)`` with ``F = min(latency, am_overhead)``: within it every
cross-rank (and same-rank AM/RMA) interaction lands at or beyond the
window end, so workers execute their slices independently.  Network and
AM-server occupancancy are *global* state, though -- workers therefore
record send/get descriptors instead of charging the models
(:attr:`repro.comm.endpoint.CommEngine._defer`), and the coordinator
replays them in the merged global order against a single persistent
clone of the network/comm models, capturing each arrival and routing it
to the destination worker with the next window broadcast.  Replaying
against a clone keeps the parent pristine until the run succeeds, so an
abort at any point falls back to the in-process engine on untouched
state.

**Shared-memory tile payloads.**  While the engine's
:class:`~repro.linalg.shm.ShmArena` is active, tile payloads are NumPy
views onto ``multiprocessing.shared_memory`` segments: build-phase tiles
are readable (and in-place writable) by every forked worker at zero
copies, and RMA payloads registered in one worker are served to the
coordinator as :class:`~repro.linalg.shm.ShmRef` descriptors that the
origin worker resolves into a zero-copy view.  Application-level stores
(``TiledMatrix.set_tile``) journal their writes inside workers so the
parent can replay them at the final merge -- results are visible to the
caller exactly as under the in-process engines.

Runs that the protocol cannot cover fall back transparently to
:meth:`ShardedEngine.run` (bit-identical by the parity suite) and record
why in :attr:`MpShardedEngine.mp_fallback_reason`: bounded runs,
non-mp-capable backends (MADNESS worlds hold address-space-local
futures), attached ledgers/checkpointers, observer hooks, single-shard
topologies, missing ``fork``, SHD009 preflight failures, and any
worker/transport error mid-run.
"""

from __future__ import annotations

import copy
import os
import traceback
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import Engine, EngineError, Event
from repro.sim.sharded import ShardedEngine

#: Window index carried by events queued before the run starts.
_PRERUN = -1

#: Termination-counter bump applied inside workers: a worker sees only its
#: own ranks' activity, so "delivered > sent" (receive-heavy worker) and
#: spurious quiescence epochs are both artifacts of the partial view.  The
#: bump keeps the detector permanently un-balanced in workers; deltas
#: against the (bumped) baseline are unaffected.
_TERM_BUMP = 1 << 60

_run_ids = count()


class _MpAbort(RuntimeError):
    """Internal: abandon the multiprocess run and fall back in-process."""


class _CaptureEngine:
    """Engine stand-in for the coordinator's replay clone: a settable
    clock plus schedule capture (the arrival is routed to a worker
    instead of entering any heap here)."""

    __slots__ = ("now", "captured")

    def __init__(self) -> None:
        self.now = 0.0
        self.captured: List[Tuple[float, Callable, tuple, Optional[int]]] = []

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    rank: Optional[int] = None) -> None:
        self.captured.append((time, fn, args, rank))

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 rank: Optional[int] = None) -> None:
        self.captured.append((self.now + delay, fn, args, rank))


class _MpLanded:
    """Arrival record for a deferred RMA get.

    The original :class:`repro.comm.rma._Landed` closes over the payload
    and the ``on_complete`` continuation; under mp the continuation must
    stay *local* to the origin worker (it references the allocated
    destination object), so the worker parks it in ``rma_pending`` under
    a token and only the token plus a payload *descriptor* travel.  The
    descriptor is ``("ref", ShmRef)`` for arena-backed payloads (resolved
    zero-copy at the origin, then copied once -- the same semantic copy
    the sequential engine charges), ``("arr", ndarray)`` for heap
    payloads (the pickle itself was the copy), or ``("none",)``.
    """

    __slots__ = ("engine", "token", "desc")

    def __init__(self, engine: "MpShardedEngine", token: Tuple[int, int],
                 desc: tuple) -> None:
        self.engine = engine
        self.token = token
        self.desc = desc

    def __call__(self) -> None:
        import numpy as np

        wk = self.engine._wk
        on_complete = wk.rma_pending.pop(self.token)
        kind = self.desc[0]
        if kind == "ref":
            from repro.linalg import shm

            view = shm.active_arena().resolve(self.desc[1])
            data = np.array(view, copy=True)
        elif kind == "arr":
            data = self.desc[1]
        else:
            data = None
        on_complete(data)


class _WorkerTracer:
    """Tracer stand-in installed on workers.

    Task records must appear in the *global* execution order, which only
    the coordinator knows -- so records buffer on the executing event's
    stream entry and the coordinator appends them to the parent tracer in
    merge order.  Message records never occur here (sends are deferred
    before the comm engine reaches its tracer).
    """

    __slots__ = ("enabled", "_wk")

    def __init__(self, wk: "_WorkerSide", enabled: bool) -> None:
        self.enabled = enabled
        self._wk = wk

    def record_task(self, name: str, key: Any, rank: int, worker: int,
                    start: float, end: float) -> None:
        if self.enabled:
            from repro.sim.trace import TaskRecord

            self._wk.cur_records.append(
                TaskRecord(name, key, rank, worker, start, end))

    def record_message(self, *args: Any, **kwargs: Any) -> None:
        # Defensive: sends are deferred upstream of any tracer call.
        pass


class _WorkerSide:
    """Per-worker mutable run state; doubles as the comm deferral context
    (``CommEngine._defer`` duck-type: ``defer_am`` / ``defer_rma``)."""

    def __init__(self, engine: "MpShardedEngine", backend: Any, k: int,
                 nworkers: int, conn: Any) -> None:
        self.engine = engine
        self.backend = backend
        self.k = k
        self.P = nworkers
        self.conn = conn
        self.owned: List[int] = []
        self.w = _PRERUN            # window currently executing
        self.cur_lidx = 0           # stream index of the executing parent
        self.next_j = 0             # parent's seq-consuming-call counter
        self.cur_deferred: List[tuple] = []
        self.cur_records: List[Any] = []
        self.rma_pending: Dict[Tuple[int, int], Callable] = {}
        self._rma_tokens = count()
        self.journal: List[tuple] = []

    # Both hooks consume one ``j``: in the sequential engine the deferred
    # call would consume exactly one global seq (the arrival's
    # ``schedule_at``), and the tag must account for every seq the parent
    # would have burned, in call order.

    def defer_am(self, src: int, dst: int, nbytes: int, handler: Callable,
                 args: tuple, t_sent: float, tag: str,
                 extra_server_time: float) -> None:
        j = self.next_j
        self.next_j = j + 1
        self.cur_deferred.append(
            ("am", src, dst, nbytes, handler, args, t_sent, tag,
             extra_server_time, j))

    def defer_rma(self, origin: int, handle: int,
                  on_complete: Callable) -> None:
        j = self.next_j
        self.next_j = j + 1
        token = (self.k, next(self._rma_tokens))
        self.rma_pending[token] = on_complete
        self.cur_deferred.append(
            ("rma", origin, handle, token, self.engine._now, j))


class MpShardedEngine(ShardedEngine):
    """Shared-nothing multiprocess variant of :class:`ShardedEngine`.

    Parameters
    ----------
    nshards, lookahead:
        As for :class:`ShardedEngine`.
    workers:
        Worker process count ``P``.  ``None`` picks
        ``min(nshards, max(2, cpu_count))``; values are clamped to
        ``nshards``.
    """

    #: Arms the SHD009 picklability preflight in
    #: :meth:`repro.runtime.base.Backend.register_executable`.
    mp_preflight = True

    def __init__(self, nshards: Optional[int] = None,
                 lookahead: Optional[float] = None,
                 workers: Optional[int] = None) -> None:
        super().__init__(nshards=nshards, lookahead=lookahead)
        from repro.linalg import shm

        self.workers = workers
        #: Why the last run fell back in-process (None => ran multiprocess).
        self.mp_fallback_reason: Optional[str] = None
        #: Conservative windows executed / skipped across workers by the
        #: multiprocess coordinator in the last run.
        self.mp_windows = 0
        self.mp_windows_skipped = 0
        # Worker-side state: None in the parent/coordinator, set after fork.
        self._wk: Optional[_WorkerSide] = None
        self._registry: Any = None
        self._conns: Optional[List[Any]] = None
        self._procs: Optional[List[Any]] = None
        # One arena per engine: tile payloads allocated from construction
        # until the first run's end are shared-memory backed, so forked
        # workers see (and write) them zero-copy.  Released -- prefix
        # sweep of /dev/shm -- when the run finishes, succeeds or not.
        self._arena = shm.ShmArena(f"{os.getpid()}-{next(_run_ids)}")
        shm.activate(self._arena)

    # ------------------------------------------------------------ scheduling
    #
    # In the parent these defer to ShardedEngine.  Inside a worker every
    # scheduling call tags the event (w, lidx, j) and routes it to the
    # owning shard heap directly; a rank owned by another worker is a
    # protocol violation (cross-rank effects must travel as deferred
    # comm), which aborts the run into the in-process fallback.

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    rank: Optional[int] = None) -> Event:
        wk = self._wk
        if wk is None:
            return super().schedule_at(time, fn, *args, rank=rank)
        if time < self._now:
            raise EngineError(
                f"cannot schedule event at t={time} before now={self._now}")
        j = wk.next_j
        wk.next_j = j + 1
        self._seq += 1
        ev = Event(time, 0, fn, args)
        s = rank % self.nshards if rank is not None else 0
        if s % wk.P != wk.k:
            raise EngineError(
                f"worker {wk.k} scheduled onto foreign shard {s} "
                f"(rank {rank}): cross-rank effects must use the comm layer")
        heappush(self._shards[s], (time, (wk.w, wk.cur_lidx, j), ev))
        return ev

    def schedule_batch(
        self, delay: float,
        calls: Sequence[Tuple[Callable[..., Any], tuple]],
        rank: Optional[int] = None,
    ) -> List[Event]:
        wk = self._wk
        if wk is None:
            return super().schedule_batch(delay, calls, rank=rank)
        if delay < 0:
            raise EngineError(f"negative delay {delay}")
        time = self._now + delay
        events = [Event(time, 0, fn, args) for fn, args in calls]
        if not events:
            return events
        j = wk.next_j
        wk.next_j = j + len(events)  # one seq per member, like the seq engine
        self._seq += len(events)
        s = rank % self.nshards if rank is not None else 0
        if s % wk.P != wk.k:
            raise EngineError(
                f"worker {wk.k} scheduled burst onto foreign shard {s}")
        # Burst member i's effective tag is (w, lidx, j + i): nothing can
        # order between consecutive j of one parent, so executing the
        # burst contiguously is exact.
        heappush(self._shards[s], (time, (wk.w, wk.cur_lidx, j), events))
        return events

    # ------------------------------------------------------------------ run

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        if self._wk is not None:
            raise EngineError("re-entrant run() inside an mp worker")
        try:
            reason = self._mp_ineligible(until, max_events)
            if reason is None:
                try:
                    self._mp_run()
                    self.mp_fallback_reason = None
                    return
                except _MpAbort as exc:
                    reason = str(exc)
            self.mp_fallback_reason = reason
            super().run(until=until, max_events=max_events)
        finally:
            self._release_arena()

    def _release_arena(self) -> None:
        from repro.linalg import shm

        arena = self._arena
        if arena is None:
            return
        self._arena = None
        if shm.active_arena() is arena:
            shm.activate(None)
        arena.release()

    def _mp_ineligible(self, until: Optional[float],
                       max_events: Optional[int]) -> Optional[str]:
        """Why this run cannot execute multiprocess (None => it can)."""
        if until is not None or max_events is not None:
            return "bounded run (until/max_events)"
        rt = self._runtime
        if rt is None:
            return "no backend bound to the engine"
        if not getattr(rt, "mp_capable", False):
            return f"backend {getattr(rt, 'name', '?')!r} is not mp-capable"
        if getattr(rt, "ledger", None) is not None:
            return "run ledger attached (streams from the executing process)"
        if getattr(rt, "checkpointer", None) is not None:
            return "checkpointer attached (snapshots need one address space)"
        if (self.on_heartbeat is not None or self.on_window is not None
                or self.on_checkpoint is not None):
            return "engine observer hooks installed"
        if self.nshards < 2:
            return "single shard"
        if self._effective_workers() < 2:
            return "fewer than two worker processes"
        if self._mp_window_width() <= 0.0:
            return "no positive conservative window width"
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            return "fork start method unavailable on this platform"
        if mp.current_process().daemon:
            # e.g. a bench pool worker (repro.bench.parallel): daemonic
            # processes may not fork children.
            return "running inside a daemonic process"
        return None

    def _effective_workers(self) -> int:
        p = self.workers
        if p is None:
            p = min(self.nshards, max(2, os.cpu_count() or 2))
        return max(1, min(p, self.nshards))

    def _mp_window_width(self) -> float:
        """``F = min(latency, am_overhead)`` -- the static bound below
        which no AM, RMA, or cross-rank effect can land.  Strict, never
        grown adaptively: unlike the in-process engine, safety (not just
        batching) depends on the width here."""
        look = self.lookahead
        rt = self._runtime
        if look is None or rt is None:
            return 0.0
        try:
            am = rt.cluster.machine.network.am_overhead
        except AttributeError:
            return 0.0
        return min(look, am)

    # --------------------------------------------------------- parent / run

    def _mp_run(self) -> None:
        import multiprocessing as mp

        from repro.runtime.registry import RuntimeRegistry

        rt = self._runtime
        self._registry = RuntimeRegistry.for_backend(rt)
        from repro.analysis.shardsafe import mp_preflight

        bad = [f for f in mp_preflight(rt) if f.rule.severity == "error"]
        if bad:
            raise _MpAbort(
                f"SHD009 preflight: {len(bad)} unpicklable event payload(s)")
        ctx = mp.get_context("fork")
        P = self._effective_workers()
        conns: List[Any] = []
        procs: List[Any] = []
        self._running = True
        try:
            try:
                for k in range(P):
                    parent_conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(
                        target=self._worker_entry,
                        args=(k, P, child_conn, list(conns)),
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    conns.append(parent_conn)
                    procs.append(proc)
                self._conns, self._procs = conns, procs
                result = self._coordinate(rt, P)
            except _MpAbort:
                raise
            except Exception as exc:  # noqa: BLE001 - fork/transport/replay
                raise _MpAbort(
                    f"{type(exc).__name__}: {exc}") from exc
        finally:
            self._running = False
            self._conns = self._procs = None
            for c in conns:
                try:
                    c.close()
                except Exception:
                    pass
            for p in procs:
                if p.is_alive():
                    p.terminate()
                p.join(timeout=5)
        # Past this point the run has succeeded: merge worker deltas and
        # the replay clone into the parent.  Failures here are hard errors
        # (state is being mutated), never a silent fallback.
        self._merge_final(rt, result)

    def _mp_recv(self, k: int) -> bytes:
        """Receive from worker ``k``; poll so a dead worker is detected
        (sibling workers inherit earlier pipes' parent ends, making EOF
        unreliable for death detection)."""
        conn = self._conns[k]
        proc = self._procs[k]

        def died() -> _MpAbort:
            proc.join(timeout=1)
            return _MpAbort(f"worker {k} died (exitcode {proc.exitcode})")

        while True:
            if conn.poll(0.05):
                try:
                    return conn.recv_bytes()
                except EOFError:  # poll also wakes on a closed pipe
                    raise died() from None
            if not proc.is_alive():
                if conn.poll(0.01):  # drain a message sent just before exit
                    try:
                        return conn.recv_bytes()
                    except EOFError:
                        raise died() from None
                raise died()

    def _mp_load(self, k: int) -> tuple:
        msg = self._registry.loads(self._mp_recv(k))
        if msg[0] == "err":
            raise _MpAbort(f"worker {k} failed:\n{msg[1]}")
        return msg

    def _coordinate(self, rt: Any, P: int) -> dict:
        """The coordinator loop: window barrier, k-way canonical merge,
        deferred-comm replay against the persistent clone."""
        reg = self._registry
        conns = self._conns
        F = self._mp_window_width()
        next_t: List[Optional[float]] = [None] * P
        for k in range(P):
            msg = self._mp_load(k)
            if msg[0] != "hello":
                raise _MpAbort(f"worker {k}: expected hello, got {msg[0]!r}")
            next_t[k] = msg[1]

        capture, clone_comm = self._make_clone(rt)
        buffered: List[List[tuple]] = [[] for _ in range(P)]
        pending_pos: List[Optional[tuple]] = [None] * P
        merged_tasks: List[Any] = []
        arrivals_scheduled = 0
        w = -1
        windows = 0
        skipped = 0

        def horizon(k: int) -> Optional[float]:
            tk = next_t[k]
            if buffered[k]:
                bmin = min(e[0] for e in buffered[k])
                tk = bmin if tk is None else min(tk, bmin)
            return tk

        while True:
            t0 = None
            for k in range(P):
                tk = horizon(k)
                if tk is not None and (t0 is None or tk < t0):
                    t0 = tk
            if t0 is None:
                break
            w += 1
            windows += 1
            end = t0 + F
            active = [k for k in range(P)
                      if (hk := horizon(k)) is not None and hk < end]
            skipped += P - len(active)
            for k in active:
                conns[k].send_bytes(reg.dumps(
                    ("win", w, end, pending_pos[k], buffered[k])))
                pending_pos[k] = None
                buffered[k] = []
            streams: Dict[int, list] = {}
            for k in active:
                msg = self._mp_load(k)
                if msg[0] != "win" or msg[1] != w:
                    raise _MpAbort(
                        f"worker {k}: bad window reply {msg[:2]!r}")
                streams[k] = msg[2]
                next_t[k] = msg[3]
            merged, pos_maps = self._mp_merge(w, streams, active)
            for k in active:
                pending_pos[k] = (w, pos_maps[k])
            # Replay this window's deferred comm in global canonical
            # order: identical calls, identical order, identical NIC and
            # AM-server arithmetic to the sequential engine.
            for k_src, entry, p in merged:
                merged_tasks.extend(entry[3])
                for d in entry[2]:
                    if d[0] == "am":
                        (_, src, dst, nbytes, handler, args, t_sent,
                         tag, extra, j) = d
                        clone_comm.send_am(
                            src, dst, nbytes, handler, *args,
                            start=t_sent, tag=tag, extra_server_time=extra)
                    else:
                        _, origin, handle, token, t_now, j = d
                        owner = (handle - 1) % P
                        conns[owner].send_bytes(reg.dumps(("rma", handle)))
                        reply = self._mp_load(owner)
                        if reply[0] != "rma-ok":
                            raise _MpAbort(
                                f"worker {owner}: bad rma reply "
                                f"{reply[0]!r}")
                        _, target, nbytes, desc = reply
                        capture.now = t_now
                        clone_comm.rma_get(
                            origin, target, nbytes,
                            _MpLanded(self, token, desc))
                    if len(capture.captured) != 1:
                        raise _MpAbort(
                            "replay captured "
                            f"{len(capture.captured)} arrivals, expected 1")
                    at, fn, fargs, rank = capture.captured.pop()
                    dstw = ((rank if rank is not None else 0)
                            % self.nshards) % P
                    buffered[dstw].append((at, (w, p, j), fn, fargs, rank))
                    arrivals_scheduled += 1

        for k in range(P):
            conns[k].send_bytes(reg.dumps(("fin",)))
        fins = []
        for k in range(P):
            msg = self._mp_load(k)
            if msg[0] != "fin":
                raise _MpAbort(f"worker {k}: expected fin, got {msg[0]!r}")
            fins.append(msg[1])
        return {
            "fins": fins,
            "clone_comm": clone_comm,
            "merged_tasks": merged_tasks,
            "windows": windows,
            "skipped": skipped,
            "arrivals": arrivals_scheduled,
        }

    def _make_clone(self, rt: Any) -> tuple:
        """One persistent replay clone for the whole run.

        NIC and AM-server occupancy carry over between windows exactly as
        in the sequential engine; merging into the parent only at overall
        success keeps aborts side-effect free (a per-window merge would
        double-charge the parent when an abort triggers the fallback).
        """
        from repro.comm.endpoint import CommEngine
        from repro.sim.trace import Tracer
        from repro.telemetry.events import Telemetry

        capture = _CaptureEngine()
        net = copy.copy(rt.cluster.network)
        net._tx_free = list(net._tx_free)
        net.engine = capture
        clone = CommEngine.__new__(CommEngine)
        clone.cluster = rt.cluster
        clone.engine = capture
        clone.network = net
        clone.tracer = (None if rt.comm.tracer is None
                        else Tracer(enabled=rt.comm.tracer.enabled))
        clone.telemetry = (None if rt.comm.telemetry is None
                           else Telemetry(nranks=rt.cluster.nranks,
                                          capacity=None))
        clone._am_cost_fn = rt.comm._am_cost_fn
        clone._am_free = list(rt.comm._am_free)
        clone._defer = None
        clone.am_count = rt.comm.am_count
        clone.am_bytes = rt.comm.am_bytes
        clone.rma_count = rt.comm.rma_count
        clone.rma_bytes = rt.comm.rma_bytes
        return capture, clone

    @staticmethod
    def _mp_merge(w: int, streams: Dict[int, list],
                  active: List[int]) -> tuple:
        """K-way merge of the window's per-worker streams by canonical
        ``(time, tag)``, resolving provisional tags incrementally.

        A provisional tag ``(w, lidx, j)`` references the parent's index
        in the *same* stream; parents execute before their children, so
        the parent's global position is always assigned by the time the
        child reaches the stream head.
        """
        idx = {k: 0 for k in active}
        pos_maps: Dict[int, List[int]] = {k: [] for k in active}
        merged: List[Tuple[int, tuple, int]] = []
        p = 0
        while True:
            best_k = None
            best_key = None
            for k in active:
                i = idx[k]
                stream = streams[k]
                if i >= len(stream):
                    continue
                t, g = stream[i][0], stream[i][1]
                if g[0] == w:  # provisional: resolve via the parent's pos
                    g = (w, pos_maps[k][g[1]], g[2])
                key = (t, g)
                if best_key is None or key < best_key:
                    best_key = key
                    best_k = k
            if best_k is None:
                return merged, pos_maps
            entry = streams[best_k][idx[best_k]]
            idx[best_k] += 1
            pos_maps[best_k].append(p)
            merged.append((best_k, entry, p))
            p += 1

    # ----------------------------------------------------------- final merge

    def _merge_final(self, rt: Any, result: dict) -> None:
        """Fold worker deltas and the replay clone into the parent.

        Everything merged here is either a commutative counter delta or
        an ordered list the coordinator already sequenced canonically.
        """
        from repro.linalg import shm

        fins = result["fins"]
        term = rt.termination
        san = rt.sanitizer
        tel = rt.telemetry
        max_now = self._now
        events_delta = 0
        seq_delta = 0
        for k, fin in enumerate(fins):
            d = fin["term"]
            term.messages_sent += d[0]
            term.messages_delivered += d[1]
            term.tasks_created += d[2]
            term.tasks_retired += d[3]
            if fin["by_rank"] is not None and term._by_rank is not None:
                for row, drow in zip(term._by_rank, fin["by_rank"]):
                    for i in range(4):
                        row[i] += drow[i]
            st = rt.stats
            for key, val in fin["stats"].items():
                if key == "makespan":
                    continue  # set by Backend.run from the merged clock
                if isinstance(val, dict):
                    target = getattr(st, key)
                    for kk, vv in val.items():
                        target[kk] = target.get(kk, 0) + vv
                else:
                    setattr(st, key, getattr(st, key) + val)
            for ex, (counts, removed, changed) in zip(rt.executables,
                                                      fin["ex"]):
                for kk, vv in counts.items():
                    ex.task_counts[kk] += vv
                for kk in removed:
                    ex._pending.pop(kk, None)
                ex._pending.update(changed)
            if san is not None and fin["san"] is not None:
                (newf, routed_rm, routed_set, fired_add, infl_rm,
                 infl_set) = fin["san"]
                san.findings.extend(newf)
                for kk in routed_rm:
                    san._routed.pop(kk, None)
                san._routed.update(routed_set)
                san._fired.update(fired_add)
                for vid in infl_rm:
                    san._inflight.pop(vid, None)
                for vid, obj, cnt, prov in infl_set:
                    if vid in san._inflight:
                        # Pre-fork object: keep the parent's own instance
                        # (ids are fork-stable, objects are not shipped
                        # back by identity).
                        san._inflight[vid] = (san._inflight[vid][0], cnt,
                                              prov)
                    else:
                        san._inflight[("mp", k, vid)] = (obj, cnt, prov)
            if tel is not None and fin["tel"] is not None:
                events, dropped, metrics = fin["tel"]
                bus = tel.bus
                bus.extend(events)
                for r, n in enumerate(dropped):
                    if r < len(bus.dropped):
                        bus.dropped[r] += n
                tel.metrics.merge(metrics)
            for h, (owner_rank, nbytes) in fin["regions"].items():
                rt.rma._regions[h] = (owner_rank, None, nbytes)
            for oid, key, value in fin["journal"]:
                target = shm.store_target(oid)
                if target is None:
                    continue  # worker-local store; nothing to reflect
                try:
                    target.mp_apply_store(key, value)
                except Exception as exc:  # noqa: BLE001 - best effort
                    import warnings

                    warnings.warn(
                        f"mp result store replay failed for key {key!r}: "
                        f"{exc}", RuntimeWarning, stacklevel=2)
            if fin["now"] > max_now:
                max_now = fin["now"]
            events_delta += fin["events"]
            seq_delta += fin["seq"]

        clone = result["clone_comm"]
        parent = rt.comm
        parent._am_free = clone._am_free
        parent.am_count = clone.am_count
        parent.am_bytes = clone.am_bytes
        parent.rma_count = clone.rma_count
        parent.rma_bytes = clone.rma_bytes
        net = rt.cluster.network
        cnet = clone.network
        net._tx_free = cnet._tx_free
        net._backbone_free = cnet._backbone_free
        net.messages_sent = cnet.messages_sent
        net.bytes_sent = cnet.bytes_sent
        if rt.tracer is not None:
            rt.tracer.tasks.extend(result["merged_tasks"])
            if clone.tracer is not None:
                rt.tracer.messages.extend(clone.tracer.messages)
        if tel is not None and clone.telemetry is not None:
            tel.bus.extend(clone.telemetry.bus.drain()[0])
            tel.metrics.merge(clone.telemetry.metrics)
        term._armed = not term.quiescent
        self._now = max_now
        self._events_processed += events_delta
        self._seq += seq_delta + result["arrivals"]
        self.windows_executed += result["windows"]
        self.mp_windows = result["windows"]
        self.mp_windows_skipped = result["skipped"]
        self.windows_skipped_quiescent += result["skipped"]
        # The workers executed these events in their copies; the parent's
        # queued entries are now history.  Only cleared on success -- the
        # fallback path relies on them being untouched.
        for heap in self._shards:
            heap.clear()
        self._incoming.clear()

    # ---------------------------------------------------------- worker side

    def _worker_entry(self, k: int, P: int, conn: Any,
                      inherited: List[Any]) -> None:
        try:
            for c in inherited:  # parent ends of earlier workers' pipes
                try:
                    c.close()
                except Exception:
                    pass
            wk = self._worker_init(k, P, conn)
            self._worker_loop(wk)
        except BaseException:
            try:
                import pickle

                conn.send_bytes(pickle.dumps(
                    ("err", traceback.format_exc())))
            except Exception:
                pass
        finally:
            os._exit(0)

    def _worker_init(self, k: int, P: int, conn: Any) -> _WorkerSide:
        from repro.linalg import shm
        from repro.telemetry.metrics import MetricsRegistry

        rt = self._runtime
        wk = _WorkerSide(self, rt, k, P, conn)
        wk.owned = list(range(k, self.nshards, P))
        # Pre-run entries keep their build seq as the canonical tag
        # (-1, 0, seq): a strictly monotone rewrite, heap-safe in place.
        for s in wk.owned:
            heap = self._shards[s]
            heap[:] = [(t, (_PRERUN, 0, seq), p) for t, seq, p in heap]
        self._incoming = []
        self._wk = wk
        rt.comm._defer = wk
        # Stride the RMA handle space so workers mint globally unique
        # handles and the coordinator can route a get to its owner:
        # worker k mints k+1, k+1+P, ... => owner = (handle - 1) % P.
        rt.rma._next = k + 1
        rt.rma._stride = P
        if rt.tracer is not None:
            rt.tracer = _WorkerTracer(wk, rt.tracer.enabled)
        tel = rt.telemetry
        if tel is not None:
            tel.bus.clear()
            tel.metrics = MetricsRegistry()
        term = rt.termination
        term.messages_sent += _TERM_BUMP
        term.tasks_created += _TERM_BUMP
        wk.base_term = (term.messages_sent, term.messages_delivered,
                        term.tasks_created, term.tasks_retired)
        wk.base_by_rank = (None if term._by_rank is None
                           else [list(r) for r in term._by_rank])
        wk.base_stats = rt.stats.as_dict()
        wk.base_events = self._events_processed
        wk.base_seq = self._seq
        wk.base_counts = [dict(ex.task_counts) for ex in rt.executables]
        wk.base_pending = [
            {key: tuple(p.counts) for key, p in ex._pending.items()}
            for ex in rt.executables
        ]
        san = rt.sanitizer
        if san is not None:
            wk.base_san = (
                len(san.findings),
                dict(san._routed),
                set(san._fired),
                {vid: rec[1] for vid, rec in san._inflight.items()},
            )
        shm.set_journal(wk.journal)
        conn.send_bytes(self._registry.dumps(
            ("hello", self._worker_heap_min(wk))))
        return wk

    def _worker_heap_min(self, wk: _WorkerSide) -> Optional[float]:
        best = None
        for s in wk.owned:
            top = self._purge_top(self._shards[s])
            if top is not None and (best is None or top[0] < best):
                best = top[0]
        return best

    def _worker_loop(self, wk: _WorkerSide) -> None:
        reg = self._registry
        conn = wk.conn
        while True:
            msg = reg.loads(conn.recv_bytes())
            kind = msg[0]
            if kind == "win":
                _, w, end, pos, arrivals = msg
                if pos is not None:
                    self._worker_canonicalize(pos[0], pos[1], wk)
                for t, tag, fn, args, rank in arrivals:
                    s = rank % self.nshards if rank is not None else 0
                    heappush(self._shards[s],
                             (t, tag, Event(t, 0, fn, args)))
                wk.w = w
                stream: List[tuple] = []
                self._worker_execute(wk, end, stream)
                conn.send_bytes(reg.dumps(
                    ("win", w, stream, self._worker_heap_min(wk),
                     self._now)))
            elif kind == "rma":
                conn.send_bytes(reg.dumps(self._worker_serve_rma(msg[1])))
            elif kind == "fin":
                conn.send_bytes(reg.dumps(("fin", self._worker_fin(wk))))
                return
            else:
                raise EngineError(f"unknown coordinator message {kind!r}")

    def _worker_canonicalize(self, w_old: int, positions: List[int],
                             wk: _WorkerSide) -> None:
        """Rewrite window-``w_old`` provisional tags to global positions.

        ``positions[lidx]`` is strictly increasing in ``lidx`` (the merge
        preserves each stream's relative order) and tags of other windows
        compare on their first element, so the rewrite is strictly
        monotone -- the heaps stay valid without re-heapifying.
        """
        for s in wk.owned:
            heap = self._shards[s]
            heap[:] = [
                (t,
                 (w_old, positions[g[1]], g[2]) if g[0] == w_old else g,
                 p)
                for t, g, p in heap
            ]

    def _worker_execute(self, wk: _WorkerSide, end: float,
                        stream: List[tuple]) -> None:
        """Run every owned event with ``time < end`` in canonical order.

        Strictly ``<``: the window width is the bound below which no
        deferred effect can land, so an event at exactly ``end`` belongs
        to a later window.  The heap scan repeats per pop because an
        executing event may schedule an earlier (still in-window) event.
        """
        shards = self._shards
        while True:
            best = None
            best_heap = None
            for s in wk.owned:
                heap = shards[s]
                top = self._purge_top(heap)
                if (top is not None and top[0] < end
                        and (best is None or top[:2] < best[:2])):
                    best = top
                    best_heap = heap
            if best is None:
                return
            time, tag, payload = heappop(best_heap)
            if type(payload) is list:
                for i, ev in enumerate(payload):
                    if ev.cancelled:
                        continue
                    self._run_member(
                        wk, time, (tag[0], tag[1], tag[2] + i), ev, stream)
            else:
                self._run_member(wk, time, tag, payload, stream)

    def _run_member(self, wk: _WorkerSide, time: float, etag: tuple,
                    ev: Event, stream: List[tuple]) -> None:
        wk.cur_lidx = len(stream)
        wk.next_j = 0
        wk.cur_deferred = []
        wk.cur_records = []
        self._now = time
        self._events_processed += 1
        ev.fn(*ev.args)
        stream.append((time, etag, wk.cur_deferred, wk.cur_records))

    def _worker_serve_rma(self, handle: int) -> tuple:
        """Serve a registered payload to the coordinator's replay.

        Arena-backed payloads travel as a :class:`ShmRef` (zero-copy);
        others as the array (the pickle is the copy); synthetic regions
        as ``("none",)``.
        """
        from repro.linalg import shm

        target, payload, nbytes = self._runtime.rma._regions[handle]
        if payload is None:
            desc: tuple = ("none",)
        else:
            arena = shm.active_arena()
            ref = arena.ref_of(payload) if arena is not None else None
            desc = ("ref", ref) if ref is not None else ("arr", payload)
        return ("rma-ok", target, nbytes, desc)

    def _worker_fin(self, wk: _WorkerSide) -> dict:
        rt = self._runtime
        term = rt.termination
        cur = (term.messages_sent, term.messages_delivered,
               term.tasks_created, term.tasks_retired)
        by_rank = None
        if term._by_rank is not None:
            by_rank = [
                [row[i] - base[i] for i in range(4)]
                for row, base in zip(term._by_rank, wk.base_by_rank)
            ]
        stats_now = rt.stats.as_dict()
        stats_delta: dict = {}
        for key, val in stats_now.items():
            base = wk.base_stats[key]
            if isinstance(val, dict):
                stats_delta[key] = {
                    kk: vv - base.get(kk, 0)
                    for kk, vv in val.items() if vv != base.get(kk, 0)
                }
            else:
                stats_delta[key] = val - base
        ex_deltas = []
        for i, ex in enumerate(rt.executables):
            base_counts = wk.base_counts[i]
            counts = {kk: vv - base_counts.get(kk, 0)
                      for kk, vv in ex.task_counts.items()
                      if vv != base_counts.get(kk, 0)}
            base_pending = wk.base_pending[i]
            removed = [kk for kk in base_pending if kk not in ex._pending]
            changed = {kk: p for kk, p in ex._pending.items()
                       if base_pending.get(kk) != tuple(p.counts)}
            ex_deltas.append((counts, removed, changed))
        san_delta = None
        san = rt.sanitizer
        if san is not None:
            nbase, routed_base, fired_base, infl_base = wk.base_san
            san_delta = (
                san.findings[nbase:],
                [kk for kk in routed_base if kk not in san._routed],
                {kk: vv for kk, vv in san._routed.items()
                 if routed_base.get(kk) != vv},
                list(san._fired - fired_base),
                [vid for vid in infl_base if vid not in san._inflight],
                [(vid, rec[0], rec[1], rec[2])
                 for vid, rec in san._inflight.items()
                 if infl_base.get(vid) != rec[1]],
            )
        tel_delta = None
        tel = rt.telemetry
        if tel is not None:
            tel_delta = (*tel.bus.drain(), tel.metrics)
        return {
            "term": tuple(c - b for c, b in zip(cur, wk.base_term)),
            "by_rank": by_rank,
            "stats": stats_delta,
            "ex": ex_deltas,
            "san": san_delta,
            "tel": tel_delta,
            "regions": {h: (rec[0], rec[2])
                        for h, rec in rt.rma._regions.items()},
            "journal": wk.journal,
            "now": self._now,
            "events": self._events_processed - wk.base_events,
            "seq": self._seq - wk.base_seq,
        }
