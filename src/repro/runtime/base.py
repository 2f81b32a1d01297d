"""Backend base: worker pools, message transport, data life-cycle, stats.

A backend provides exactly what the paper says one must (II-D): the ability
to schedule and execute tasks, plus resource management and coordination for
communication and computation in a distributed setting.  The TTG core layer
(:mod:`repro.core`) is backend-agnostic and drives this interface:

- :meth:`Backend.submit` -- enqueue a ready task on a rank's worker pool.
- :meth:`Backend.post_local` -- deliver a local message (after the current
  event, preserving send order).
- :meth:`Backend.send_value` -- serialize a value with the best available
  protocol and deliver it on the destination rank (eager or splitmd+RMA).
- :meth:`Backend.send_control` -- small control-only active message.
- :meth:`Backend.run` -- drain the event queue and check nothing was lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.comm.endpoint import CommEngine
from repro.comm.rma import RmaError, RmaWindow
from repro.runtime.scheduler import get_scheduler
from repro.serialization.protocols import Protocol, SerializedMessage
from repro.serialization.splitmd import splitmd_phase_names, unpack_metadata
from repro.serialization.traits import SPLITMD, pack
from repro.sim.cluster import Cluster
from repro.telemetry.events import (COUNTER, SPAN, TID_PROTO, TID_RT,
                                    Handles, Telemetry)

#: Size charged for control-only active messages (task-id only, no data).
CONTROL_BYTES = 64

#: ``EventBus.record`` arg specs of the events recorded here.
_TASK_ARGS = "key! template priority"
_PROTO_ARGS = ("src", "nbytes")
_DEPTH_ARGS = ("depth",)


class TerminationError(RuntimeError):
    """Work left behind after the event queue drained: a queued task that
    was never dispatched, or a worker whose completion never came."""


@dataclass
class BackendConfig:
    """Tunable backend behaviour (the ablation benches sweep these).

    Attributes
    ----------
    scheduler:
        Ready-queue policy name ('lifo' | 'fifo' | 'priority').
    broadcast:
        'optimized' dedups payload transfers per destination rank;
        'naive' sends one full payload per destination *key*.
    serialization_allowed:
        Optional protocol whitelist, e.g. ``("generic",)`` to disable
        splitmd in an ablation.
    supports_splitmd:
        Whether the backend offers RMA-based splitmd transfers.
    copy_on_cref:
        Whether passing data by const-ref still copies (True for the
        MADNESS backend, which does not own the data life-cycle).
    am_cost_per_byte:
        Per-byte AM-server processing (models a single comm thread choking
        on message volume; ~0 for PaRSEC).
    """

    scheduler: str = "priority"
    broadcast: str = "optimized"
    serialization_allowed: Optional[Tuple[str, ...]] = None
    supports_splitmd: bool = True
    copy_on_cref: bool = False
    am_cost_per_byte: float = 0.0


@dataclass
class RunStats:
    """Aggregate counters for one execution.

    ``tasks_by_template`` and ``bytes_by_protocol`` are the per-template /
    per-protocol breakdowns of ``tasks_executed`` and ``remote_bytes``
    (control messages are charged to protocol ``"control"``); both are
    maintained unconditionally -- they cost one dict update on paths that
    already touch several counters.
    """

    tasks_executed: int = 0
    local_deliveries: int = 0
    remote_messages: int = 0
    remote_bytes: int = 0
    rma_transfers: int = 0
    rma_bytes: int = 0
    copies: int = 0
    copy_bytes: int = 0
    splitmd_releases: int = 0
    broadcasts: int = 0
    broadcast_payloads_sent: int = 0
    broadcast_keys_covered: int = 0
    makespan: float = 0.0
    tasks_by_template: Dict[str, int] = field(default_factory=dict)
    bytes_by_protocol: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = dict(self.__dict__)
        d["tasks_by_template"] = dict(self.tasks_by_template)
        d["bytes_by_protocol"] = dict(self.bytes_by_protocol)
        return d


class _Splitmd:
    """One splitmd transfer.  Its metadata message arrives
    (:meth:`on_meta`): allocate the destination object and RMA-get the
    payload, which stays registered in the source rank's RMA window until
    the release control message fires.  The payload lands
    (:meth:`on_payload`): fill the object, release the source region,
    deliver."""

    __slots__ = ("backend", "src", "dst", "meta_bytes", "eager_bytes",
                 "rma_bytes", "handle", "send_start", "flow", "heads",
                 "on_deliver", "obj", "meta_end")

    def __init__(self, backend: "Backend", src: int, dst: int,
                 meta_bytes: bytes, eager_bytes: int, rma_bytes: int,
                 handle: int, send_start: float, flow: Optional[int],
                 heads: Optional[Tuple[tuple, tuple]],
                 on_deliver: Callable[[Any], None]) -> None:
        self.backend = backend
        self.src = src
        self.dst = dst
        self.meta_bytes = meta_bytes
        self.eager_bytes = eager_bytes
        self.rma_bytes = rma_bytes
        self.handle = handle
        self.send_start = send_start
        self.flow = flow
        self.heads = heads
        self.on_deliver = on_deliver

    def on_meta(self) -> None:
        backend = self.backend
        self.meta_end = meta_end = backend.engine.now
        if self.flow is not None:
            backend.telemetry.bus.emit((
                self.heads[0], self.send_start, meta_end, self.flow,
                self.src, self.eager_bytes,
            ))
        cls, meta = unpack_metadata(self.meta_bytes)
        self.obj = cls.splitmd_allocate(meta)
        backend.rma.get(self.dst, self.handle, self.on_payload)

    def on_payload(self, data: Any) -> None:
        backend = self.backend
        obj = self.obj
        if data is not None:
            obj.splitmd_fill(data)
        if self.flow is not None:
            backend.telemetry.bus.emit((
                self.heads[1], self.meta_end, backend.engine.now, self.flow,
                self.src, self.rma_bytes,
            ))
        # Notify the sender to release the registered region.
        backend.comm.send_am(
            self.dst, self.src, CONTROL_BYTES, backend._release_handle,
            self.handle, tag="rel"
        )
        self.on_deliver(obj)


class _Eager:
    """One eager message.  It arrives at the destination AM server
    (:meth:`on_arrival`) and, once copied, delivers its reconstructed value
    (:meth:`deliver`)."""

    __slots__ = ("backend", "proto", "msg", "recv_copy", "server_time",
                 "on_deliver")

    def __init__(self, backend: "Backend", proto: Any, msg: Any,
                 recv_copy: int, server_time: float,
                 on_deliver: Callable[[Any], None]) -> None:
        self.backend = backend
        self.proto = proto
        self.msg = msg
        self.recv_copy = recv_copy
        self.server_time = server_time
        self.on_deliver = on_deliver

    def on_arrival(self) -> None:
        backend = self.backend
        recv_copy = self.recv_copy
        if recv_copy:
            backend.stats.copies += 1
            backend.stats.copy_bytes += recv_copy
        if self.server_time > 0.0:
            self.deliver()  # copy time already occupied the AM server
        else:
            backend.engine.schedule(
                backend._node.copy_time(recv_copy) if recv_copy else 0.0,
                self.deliver)

    def deliver(self) -> None:
        self.on_deliver(self.proto.deserialize(self.msg))


class _ReadyTask:
    """A task :meth:`Backend.submit` queued: a callable and the fields
    :class:`WorkerPool` reads (as a graph task, ``core.graph._Task``)."""

    __slots__ = ("fn", "flops", "bytes_moved", "priority", "name", "key")

    def __init__(
        self,
        fn: Callable[[], None],
        flops: float,
        bytes_moved: float,
        priority: int,
        name: str,
        key: Any,
    ) -> None:
        self.fn = fn
        self.flops = flops
        self.bytes_moved = bytes_moved
        self.priority = priority
        self.name = name
        self.key = key

    def run(self) -> None:
        self.fn()


class WorkerPool:
    """Per-rank pool of simulated workers draining one ready queue.

    It keeps the engine and the :class:`RunStats` it uses, not its
    backend, so a backend and its pools form no reference cycle."""

    def __init__(self, backend: "Backend", rank: int) -> None:
        self.engine = backend.engine
        self.stats = backend.stats
        self.rank = rank
        node = backend.cluster.node
        self.nworkers = node.workers
        self._idle = list(range(node.workers - 1, -1, -1))
        self._queue = get_scheduler(backend.config.scheduler)
        self._node = node
        # What-if cost-override hook (repro.sim.cluster.CostOverrides):
        # per-template virtual speedups applied as exact duration divisions
        # so the deterministic engine replays the counterfactual run
        # bit-for-bit.  None => zero-overhead default path.
        ov = getattr(backend.cluster, "overrides", None)
        self._speedups = dict(ov.speedups) if ov is not None and ov.speedups else None
        # Telemetry hook point (enable_telemetry): this rank's log of a
        # recording bus.  None => one branch at each push, pop and
        # completion.
        self._log: Optional[list] = None

    def enable_telemetry(self, tel: Telemetry) -> None:
        """Sample the queue depth at the pushes (:meth:`push`) and pops
        (:meth:`_dispatch`), and record every completed task.  The queue
        must be empty: the recording starts before its first push."""
        if self.queued:
            raise ValueError(
                f"cannot attach telemetry to rank {self.rank}'s non-empty "
                "ready queue (attach telemetry before submitting tasks)"
            )
        if not tel.bus.recording:
            return
        rank = self.rank
        self._depth_head = (COUNTER, "queue_depth", "counter", rank, 0,
                            _DEPTH_ARGS)
        # Task span heads per (template, worker).
        self._task_heads = Handles(lambda k: (
            SPAN, k[0], "task", rank, k[1], _TASK_ARGS))
        self._log = tel.bus.logs[rank]

    def push(self, task: Any, priority: int) -> None:
        """Queue ``task`` and dispatch it if a worker is idle."""
        self._queue.push(task, priority)
        log = self._log
        if log is not None:
            now = self.engine.now
            log.extend((self._depth_head, now, now, None,
                        len(self._queue.items)))
        # With every worker busy the task just waits: the next completion
        # dispatches it.
        if self._idle:
            self._dispatch()

    @property
    def queued(self) -> int:
        return len(self._queue)

    @property
    def busy_workers(self) -> int:
        """Workers running a task whose completion is pending."""
        return self.nworkers - len(self._idle)

    def _dispatch(self) -> None:
        engine = self.engine
        log = self._log
        ready = self._queue.items
        while self._idle and ready:
            task = self._queue.pop()
            worker = self._idle.pop()
            start = engine.now
            if log is not None:
                log.extend((self._depth_head, start, start, None, len(ready)))
            duration = self._node.compute_time(task.flops, task.bytes_moved)
            if self._speedups is not None:
                s = self._speedups.get(task.name)
                if s:
                    duration = duration / s
            engine.schedule_at(start + duration, self._complete, task, worker,
                               start)

    def _complete(self, task: Any, worker: int, start: float) -> None:
        log = self._log
        if log is not None:
            log.extend((self._task_heads[(task.name, worker)], start,
                        self.engine.now, None, task.key, task.name,
                        task.priority))
        stats = self.stats
        stats.tasks_executed += 1
        by_template = stats.tasks_by_template
        by_template[task.name] = by_template.get(task.name, 0) + 1
        try:
            task.run()
        finally:
            self._idle.append(worker)
            self._dispatch()


class Backend:
    """Shared machinery of the PaRSEC and MADNESS backends."""

    name = "base"

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[BackendConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.config = config or BackendConfig()
        self._node = cluster.node
        self.stats = RunStats()
        # TTG-San hook point: armed by Executable(strict/sanitize), see
        # repro.analysis.sanitizer.  None => zero-overhead default path.
        self.sanitizer = None
        # Telemetry hook point: attach_telemetry arms every layer's hooks.
        # None => the default path pays one attribute load + branch.
        self.telemetry = None
        self.comm = CommEngine(
            cluster, am_cost_per_byte=self.config.am_cost_per_byte)
        self.rma = RmaWindow(self.comm)
        self.pools = [WorkerPool(self, r) for r in range(cluster.nranks)]
        #: Completed drains of the event queue (the ``quiescence`` epoch).
        self.drains = 0
        #: Executables bound to this backend with their delivery compiled
        #: without a recording bus
        #: (:meth:`repro.core.graph.Executable._compile`).
        self.unrecorded_bindings = 0
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Arm the telemetry hooks on every layer this backend owns.

        Binds the bus clock to this backend's engine and arms the worker
        pools' queue sampling and the comm engine.  Attach before
        submitting work (the pools refuse non-empty queues) and before
        binding a graph: an executable compiles its delivery once, recorded
        or not, so one bound here without a recording bus refuses it too.
        """
        if self.unrecorded_bindings:
            raise ValueError(
                "cannot attach telemetry to a backend with an unrecorded "
                "executable bound to it (attach telemetry before binding "
                "the graph)")
        telemetry.bind(self)
        for pool in self.pools:
            pool.enable_telemetry(telemetry)
        self.telemetry = telemetry
        self.comm.attach_telemetry(telemetry)
        # Heads of the two splitmd phase spans, per (tag, destination).
        self._h_proto = Handles(lambda k: tuple(
            (SPAN, name, "proto", k[1], TID_PROTO, _PROTO_ARGS)
            for name in splitmd_phase_names(k[0])))

    # ------------------------------------------------------------------ info

    @property
    def nranks(self) -> int:
        return self.cluster.nranks

    @property
    def supports_splitmd(self) -> bool:
        return self.config.supports_splitmd

    # ----------------------------------------------------------------- tasks

    def submit(
        self,
        rank: int,
        fn: Callable[[], None],
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        priority: int = 0,
        name: str = "task",
        key: Any = None,
    ) -> None:
        """Enqueue a ready task on ``rank``'s worker pool.

        The task is queued and dispatched right here, in the caller's
        frame: this runs once per simulated task."""
        self.pools[rank].push(
            _ReadyTask(fn, flops, bytes_moved, priority, name, key), priority)

    def post_local(self, fn: Callable[..., None], *args: Any,
                   delay: float = 0.0) -> None:
        """Run ``fn`` after the current event (plus ``delay``).

        Used for rank-local message delivery so that all sends made by a
        task body take effect after the body returns, in send order; the
        delay charges local copy costs.
        """
        engine = self.engine
        engine.schedule_at(engine.now + delay, fn, *args)

    # -------------------------------------------------------------- messages

    def serialize(self, value: Any) -> Tuple[Protocol, SerializedMessage]:
        """Pack ``value`` with the best protocol under this backend's rules
        (one pass: selecting a protocol and packing are the same work for
        the generic protocols).

        splitmd is only worth its extra round-trips for payloads beyond the
        eager threshold; small objects always go eager.  splitmd heads the
        preference order, so a class already known to implement it skips
        the candidate walk.
        """
        config = self.config
        allowed = config.serialization_allowed
        splitmd_ok = config.supports_splitmd and (
            int(getattr(value, "nbytes", 0) or 0)
            > self.cluster.machine.network.eager_threshold)
        if splitmd_ok and SPLITMD.verdicts.get(type(value)) and (
                allowed is None or "splitmd" in allowed):
            return SPLITMD, SPLITMD.serialize(value)
        return pack(value, backend_supports_splitmd=splitmd_ok, allowed=allowed)

    def send_control(
        self, src: int, dst: int, on_deliver: Callable[[], None], nbytes: int = CONTROL_BYTES
    ) -> None:
        """Small control-only active message (task id, no data)."""
        self.stats.remote_messages += 1
        self.stats.remote_bytes += nbytes
        proto_stats = self.stats.bytes_by_protocol
        proto_stats["control"] = proto_stats.get("control", 0) + nbytes
        self.comm.send_am(src, dst, nbytes, on_deliver, tag="ctrl")

    def send_value(
        self,
        src: int,
        dst: int,
        value: Any,
        on_deliver: Callable[[Any], None],
        *,
        tag: str = "data",
        extra_bytes: int = 0,
        packed: Optional[Tuple[Protocol, SerializedMessage]] = None,
    ) -> None:
        """Serialize ``value`` and deliver a reconstructed copy at ``dst``.

        Chooses the protocol per the trait order; splitmd sends metadata
        eagerly, RMA-gets the payload, then notifies the sender to release
        the source object.  Copy costs are charged to virtual time.
        ``extra_bytes`` rides along in the eager part (e.g. the task-ID list
        of an optimized broadcast).  ``packed`` is ``value`` already
        :meth:`serialize`-d: a broadcast packs its value once for all its
        destination ranks, and the message is not changed here.
        """
        proto, msg = self.serialize(value) if packed is None else packed
        node = self._node
        eager = msg.eager_bytes + extra_bytes
        total = eager + msg.rma_bytes
        self.stats.remote_messages += 1
        self.stats.remote_bytes += total
        proto_stats = self.stats.bytes_by_protocol
        proto_stats[msg.protocol] = proto_stats.get(msg.protocol, 0) + total
        send_start = self.engine.now
        if msg.sender_copy_bytes:
            self.stats.copies += 1
            self.stats.copy_bytes += msg.sender_copy_bytes
            send_start += node.copy_time(msg.sender_copy_bytes)

        if msg.protocol == "splitmd":
            meta_bytes, payload = msg.payload
            handle = self.rma.register(src, payload, max(msg.rma_bytes, 1))
            self.stats.rma_transfers += 1
            self.stats.rma_bytes += msg.rma_bytes
            # Flow id and span heads exist for the recorded spans only.
            flow = heads = None
            tel = self.telemetry
            if tel is not None and tel.bus.recording:
                flow = tel.bus.new_flow()
                heads = self._h_proto[(tag, dst)]
            self.comm.send_am(
                src, dst, eager,
                _Splitmd(self, src, dst, meta_bytes, eager,
                         msg.rma_bytes, handle, send_start, flow, heads,
                         on_deliver).on_meta,
                start=send_start, tag=tag)
        else:
            recv_copy = msg.receiver_copy_bytes
            server_time = node.copy_time(recv_copy) if self._copies_block_am_server() else 0.0
            self.comm.send_am(
                src,
                dst,
                eager,
                _Eager(self, proto, msg, recv_copy, server_time,
                       on_deliver).on_arrival,
                start=send_start,
                tag=tag,
                extra_server_time=server_time,
            )

    def _release_handle(self, handle: int) -> None:
        self.rma.release(handle)
        self.stats.splitmd_releases += 1

    def _copies_block_am_server(self) -> bool:
        """Whether receiver-side deserialization occupies the AM server
        (True for MADNESS's single server thread)."""
        return False

    # ------------------------------------------------------------- data copy

    def maybe_copy_local(self, value: Any, mode: str) -> Tuple[Any, float]:
        """Apply TTG copy semantics for a rank-local delivery.

        ``mode`` is 'value' (copy so the sender may keep mutating), 'cref'
        (no copy if the runtime owns the data life-cycle) or 'move' (never
        copy; sender relinquishes the object).  Returns the (possibly
        cloned) value and the copy delay to charge before delivery.
        """
        need_copy = mode == "value" or (mode == "cref" and self.config.copy_on_cref)
        if not need_copy:
            if self.sanitizer is not None and mode == "cref":
                # The runtime now shares this object with a consumer; any
                # later mutation by the sender is a write-after-share race.
                self.sanitizer.on_cref_share(value)
            return value, 0.0
        nbytes = int(getattr(value, "nbytes", 0) or 0)
        delay = 0.0
        if nbytes:
            self.stats.copies += 1
            self.stats.copy_bytes += nbytes
            delay = self._node.copy_time(nbytes)
        clone = getattr(value, "clone", None)
        return (clone() if callable(clone) else value), delay

    # ------------------------------------------------------------------ run

    def run(self) -> float:
        """Drain all events; returns the makespan (final virtual time).

        Then checks that the drain left nothing behind (see
        :meth:`_check_drained`).
        """
        self.engine.run()
        if self.sanitizer is not None:
            self.sanitizer.on_backend_drain(self)
        self._check_drained()
        self.stats.makespan = self.engine.now
        return self.engine.now

    def _check_drained(self) -> None:
        """Quiescence check after a full drain of the event queue.

        With one event loop an empty heap *is* global quiescence, so lost
        work shows up as the state it leaves behind: a task queued but
        never dispatched, a worker whose completion never came
        (:class:`TerminationError`), or a splitmd source never released
        (:class:`~repro.comm.rma.RmaError` -- the PaRSEC backend owns the
        data flowing through the graph, so a leak is a bug).
        Marks the quiescence once per drain on the telemetry timeline.
        """
        for pool in self.pools:
            if pool.queued or pool.busy_workers:
                raise TerminationError(
                    f"lost work on rank {pool.rank}: {pool.queued} task(s) "
                    f"queued and {pool.busy_workers} running after the event "
                    "queue drained"
                )
        live = self.rma.live_handles()
        if live:
            raise RmaError(
                f"{live} splitmd source objects were never released "
                "(data life-cycle leak)"
            )
        self.drains += 1
        tel = self.telemetry
        if tel is not None and tel.bus.recording:
            stats = self.stats
            tel.bus.instant(
                "quiescence", 0, TID_RT, cat="rt", epoch=self.drains,
                tasks=stats.tasks_executed + stats.local_deliveries,
                messages=stats.remote_messages,
            )
