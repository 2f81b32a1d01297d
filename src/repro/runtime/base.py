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
- :meth:`Backend.run` -- drain the event queue and validate termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.comm.endpoint import CommEngine
from repro.comm.rma import RmaWindow
from repro.runtime.scheduler import InstrumentedQueue, get_scheduler
from repro.runtime.termination import TerminationDetector
from repro.serialization.protocols import Protocol, SerializedMessage
from repro.serialization.splitmd import splitmd_phase_names, unpack_metadata
from repro.serialization.traits import pack
from repro.sim.cluster import Cluster
from repro.sim.trace import Tracer
from repro.telemetry.events import COUNTER, SPAN, TID_PROTO, Telemetry

#: Size charged for control-only active messages (task-id only, no data).
CONTROL_BYTES = 64

#: ``EventBus.record`` arg specs of the events recorded here.
_TASK_ARGS = "key! template priority pcie_bytes? data*"
_PROTO_ARGS = ("src", "nbytes")
_DEPTH_ARGS = ("depth",)


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


class _LocalRun:
    """Heap record for a rank-local delivery posted via ``post_local``.

    Module-level record instead of a closure so heap entries pickle
    (physical checkpoints serialize them to disk).  The termination
    detector resolves through the runtime registry, never by value.
    """

    __slots__ = ("termination", "fn", "args", "rank")

    def __init__(self, termination: TerminationDetector,
                 fn: Callable[..., None], args: Tuple[Any, ...],
                 rank: Optional[int]) -> None:
        self.termination = termination
        self.fn = fn
        self.args = args
        self.rank = rank

    def __call__(self) -> None:
        try:
            self.fn(*self.args)
        finally:
            self.termination.task_retired(self.rank)


class _CtrlDeliver:
    """Heap record for the arrival of a control-only active message."""

    __slots__ = ("termination", "dst", "on_deliver")

    def __init__(self, termination: TerminationDetector, dst: int,
                 on_deliver: Callable[[], None]) -> None:
        self.termination = termination
        self.dst = dst
        self.on_deliver = on_deliver

    def __call__(self) -> None:
        self.termination.message_delivered(self.dst)
        self.on_deliver()


class _OnMeta:
    """Arrival of a splitmd metadata message: allocate the destination
    object and RMA-get the payload.  Carries only scalars + the metadata
    bytes -- the payload array stays registered in the source rank's RMA
    window until the release control message fires."""

    __slots__ = ("backend", "src", "dst", "meta_bytes", "eager_bytes",
                 "rma_bytes", "handle", "send_start", "flow", "meta_name",
                 "rma_name", "on_deliver")

    def __init__(self, backend: "Backend", src: int, dst: int,
                 meta_bytes: bytes, eager_bytes: int, rma_bytes: int,
                 handle: int, send_start: float, flow: Optional[int],
                 meta_name: Optional[str], rma_name: Optional[str],
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
        self.meta_name = meta_name
        self.rma_name = rma_name
        self.on_deliver = on_deliver

    def __call__(self) -> None:
        backend = self.backend
        meta_end = backend.engine.now
        if self.flow is not None:
            backend.telemetry.bus.record(
                SPAN, self.meta_name, "proto", self.dst, TID_PROTO,
                self.send_start, meta_end, self.flow, _PROTO_ARGS,
                self.src, self.eager_bytes,
            )
        cls, meta = unpack_metadata(self.meta_bytes)
        obj = cls.splitmd_allocate(meta)
        backend.rma.get(
            self.dst, self.handle,
            _OnPayload(backend, self.src, self.dst, obj, meta_end,
                       self.rma_bytes, self.handle, self.flow,
                       self.rma_name, self.on_deliver),
        )


class _OnPayload:
    """Landing of a splitmd RMA payload: fill the allocated object,
    release the source region, deliver."""

    __slots__ = ("backend", "src", "dst", "obj", "meta_end", "rma_bytes",
                 "handle", "flow", "rma_name", "on_deliver")

    def __init__(self, backend: "Backend", src: int, dst: int, obj: Any,
                 meta_end: float, rma_bytes: int, handle: int,
                 flow: Optional[int], rma_name: Optional[str],
                 on_deliver: Callable[[Any], None]) -> None:
        self.backend = backend
        self.src = src
        self.dst = dst
        self.obj = obj
        self.meta_end = meta_end
        self.rma_bytes = rma_bytes
        self.handle = handle
        self.flow = flow
        self.rma_name = rma_name
        self.on_deliver = on_deliver

    def __call__(self, data: Any) -> None:
        backend = self.backend
        obj = self.obj
        if data is not None:
            obj.splitmd_fill(data)
        if self.flow is not None:
            backend.telemetry.bus.record(
                SPAN, self.rma_name, "proto", self.dst, TID_PROTO,
                self.meta_end, backend.engine.now, self.flow, _PROTO_ARGS,
                self.src, self.rma_bytes,
            )
        # Notify the sender to release the registered region.
        backend.comm.send_am(
            self.dst, self.src, CONTROL_BYTES, backend._release_handle,
            self.handle, tag="rel"
        )
        backend.termination.message_delivered(self.dst)
        self.on_deliver(obj)


class _OnArrival:
    """Arrival of an eager message at the destination AM server."""

    __slots__ = ("backend", "dst", "proto", "msg", "recv_copy",
                 "server_time", "on_deliver")

    def __init__(self, backend: "Backend", dst: int, proto: Any, msg: Any,
                 recv_copy: int, server_time: float,
                 on_deliver: Callable[[Any], None]) -> None:
        self.backend = backend
        self.dst = dst
        self.proto = proto
        self.msg = msg
        self.recv_copy = recv_copy
        self.server_time = server_time
        self.on_deliver = on_deliver

    def __call__(self) -> None:
        backend = self.backend
        recv_copy = self.recv_copy
        if recv_copy:
            backend.stats.copies += 1
            backend.stats.copy_bytes += recv_copy
        deliver = _EagerDeliver(backend, self.dst, self.proto, self.msg,
                                self.on_deliver)
        if self.server_time > 0.0:
            deliver()  # copy time already occupied the AM server
        else:
            backend.engine.schedule(
                backend.cluster.node.copy_time(recv_copy) if recv_copy else 0.0,
                deliver, rank=self.dst)


class _EagerDeliver:
    """Post-copy delivery of an eager message's reconstructed value."""

    __slots__ = ("backend", "dst", "proto", "msg", "on_deliver")

    def __init__(self, backend: "Backend", dst: int, proto: Any, msg: Any,
                 on_deliver: Callable[[Any], None]) -> None:
        self.backend = backend
        self.dst = dst
        self.proto = proto
        self.msg = msg
        self.on_deliver = on_deliver

    def __call__(self) -> None:
        self.backend.termination.message_delivered(self.dst)
        self.on_deliver(self.proto.deserialize(self.msg))


class _ReadyTask:
    """A task instance bound for a worker pool."""

    __slots__ = ("fn", "flops", "bytes_moved", "priority", "name", "key",
                 "device", "inputs")

    def __init__(
        self,
        fn: Callable[[], None],
        flops: float,
        bytes_moved: float,
        priority: int,
        name: str,
        key: Any,
        device: str = "cpu",
        inputs: Tuple[Any, ...] = (),
    ) -> None:
        self.fn = fn
        self.flops = flops
        self.bytes_moved = bytes_moved
        self.priority = priority
        self.name = name
        self.key = key
        self.device = device
        self.inputs = inputs


class WorkerPool:
    """Per-rank pool of simulated workers (and accelerator slots) draining
    device-specific ready queues.

    Accelerator tasks pay PCIe transfers for inputs not already resident on
    the rank's device memory (a simple grow-only residency cache: producers
    and consumers that stay on the device reuse operands for free).
    """

    def __init__(self, backend: "Backend", rank: int) -> None:
        self.backend = backend
        self.rank = rank
        node = backend.cluster.node
        self.nworkers = node.workers
        self._idle = list(range(node.workers - 1, -1, -1))
        self._queue = get_scheduler(backend.config.scheduler)
        self._gpu_idle = list(range(node.gpus - 1, -1, -1))
        self._gpu_queue = get_scheduler(backend.config.scheduler)
        self._resident: set = set()
        self._node = node
        # What-if cost-override hook (repro.sim.cluster.CostOverrides):
        # per-template virtual speedups applied as exact duration divisions
        # so the deterministic engine replays the counterfactual run
        # bit-for-bit.  None => zero-overhead default path.
        ov = getattr(backend.cluster, "overrides", None)
        self._speedups = dict(ov.speedups) if ov is not None and ov.speedups else None
        self.gpu_tasks_executed = 0
        self.gpu_transfer_bytes = 0

    def enable_telemetry(self, tel: Telemetry) -> None:
        """Wrap the ready queues with queue-wait / depth sampling."""
        rank = self.rank
        bus = tel.bus
        clock = partial(getattr, self.backend.engine, "now")

        def _sampler(device: str):
            wait_hist = tel.metrics.histogram("queue_wait", rank=rank, device=device)
            depth_gauge = tel.metrics.gauge("queue_depth_peak", rank=rank, device=device)
            name = f"queue_depth_{device}"

            def sample(depth: int) -> None:
                if bus.recording:
                    now = clock()
                    bus.record(COUNTER, name, "counter", rank, 0, now, now,
                               None, _DEPTH_ARGS, depth)

            def on_push(depth: int) -> None:
                if depth > depth_gauge.value:
                    depth_gauge.set(depth)
                sample(depth)

            def on_pop(wait: float, depth: int) -> None:
                wait_hist.observe(wait)
                sample(depth)

            return on_push, on_pop

        on_push, on_pop = _sampler("cpu")
        self._queue = InstrumentedQueue(self._queue, clock, on_push, on_pop)
        on_push, on_pop = _sampler("gpu")
        self._gpu_queue = InstrumentedQueue(self._gpu_queue, clock, on_push, on_pop)

    @property
    def queued(self) -> int:
        return len(self._queue) + len(self._gpu_queue)

    @property
    def busy_workers(self) -> int:
        return self.nworkers - len(self._idle)

    def submit(self, task: _ReadyTask) -> None:
        if task.device == "gpu":
            if self._node.gpus < 1:
                raise RuntimeError(
                    f"task {task.name}[{task.key!r}] requests a GPU but the "
                    "node has none"
                )
            self._gpu_queue.push(task, task.priority)
        else:
            self._queue.push(task, task.priority)
        # With every worker busy the task just waits: the next completion
        # dispatches it.
        if self._idle or self._gpu_idle:
            self._dispatch()

    def _transfer_bytes(self, task: _ReadyTask) -> int:
        """PCIe bytes for inputs not yet resident on the device."""
        total = 0
        for obj in task.inputs:
            nbytes = int(getattr(obj, "nbytes", 0) or 0)
            if nbytes == 0:
                continue
            oid = id(obj)
            if oid not in self._resident:
                total += nbytes
                self._resident.add(oid)
        return total

    def _dispatch(self) -> None:
        engine = self.backend.engine
        while self._idle and self._queue:
            task = self._queue.pop()
            worker = self._idle.pop()
            start = engine.now
            duration = self._node.compute_time(task.flops, task.bytes_moved)
            if self._speedups is not None:
                s = self._speedups.get(task.name)
                if s:
                    duration = duration / s
            engine.schedule_at(start + duration, self._complete, task, worker,
                               start, rank=self.rank)
        while self._gpu_idle and self._gpu_queue:
            task = self._gpu_queue.pop()
            slot = self._gpu_idle.pop()
            start = engine.now
            transfer = self._transfer_bytes(task)
            self.gpu_transfer_bytes += transfer
            duration = self._node.gpu_compute_time(task.flops, transfer)
            if self._speedups is not None:
                s = self._speedups.get(task.name)
                if s:
                    duration = duration / s
            engine.schedule_at(
                start + duration, self._complete_gpu, task, slot, start,
                transfer, rank=self.rank
            )

    def _record_task(self, backend: "Backend", name: str, task: _ReadyTask,
                     tid: int, start: float,
                     pcie_bytes: Optional[int] = None) -> None:
        end = backend.engine.now
        if backend.tracer is not None:
            backend.tracer.record_task(name, task.key, self.rank, tid, start, end)
        tel = backend.telemetry
        if tel is not None:
            if tel.bus.recording:
                # Data tokens of trackable inputs: the race detector uses
                # them to see which rank shards observed a buffer live.
                # Accelerator tasks carry their host->device traffic so
                # the report can split PCIe bytes out of the byte budget.
                tel.bus.record(
                    SPAN, name, "task", self.rank, tid, start, end, None,
                    _TASK_ARGS, task.key, task.name, task.priority,
                    pcie_bytes, *[tok for tok in map(tel.data_token, task.inputs)
                                  if tok is not None],
                )
            tel.metrics.counter("tasks", template=task.name, rank=self.rank).inc()
            tel.metrics.histogram("task_time", template=task.name).observe(end - start)

    def _complete(self, task: _ReadyTask, worker: int, start: float) -> None:
        backend = self.backend
        if backend.tracer is not None or backend.telemetry is not None:
            self._record_task(backend, task.name, task, worker, start)
        backend.stats.tasks_executed += 1
        stats = backend.stats.tasks_by_template
        stats[task.name] = stats.get(task.name, 0) + 1
        try:
            task.fn()
        finally:
            self._idle.append(worker)
            backend.termination.task_retired(self.rank)
            self._dispatch()

    def _complete_gpu(self, task: _ReadyTask, slot: int, start: float,
                      transfer: int = 0) -> None:
        backend = self.backend
        if backend.tracer is not None or backend.telemetry is not None:
            self._record_task(backend, f"{task.name}@gpu", task,
                              self.nworkers + slot, start, pcie_bytes=transfer)
        backend.stats.tasks_executed += 1
        stats = backend.stats.tasks_by_template
        stats[task.name] = stats.get(task.name, 0) + 1
        self.gpu_tasks_executed += 1
        try:
            task.fn()
        finally:
            self._gpu_idle.append(slot)
            backend.termination.task_retired(self.rank)
            self._dispatch()


class Backend:
    """Shared machinery of the PaRSEC and MADNESS backends."""

    name = "base"

    #: Whether this backend's heap entries pickle through the runtime
    #: registry (checkpoint format v2 stores heap bytes when they do).
    #: The MADNESS backend says False: World futures are address-space
    #: local.
    heap_picklable = True

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[BackendConfig] = None,
        tracer: Optional[Tracer] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.config = config or BackendConfig()
        self.tracer = tracer
        self.stats = RunStats()
        # TTG-San hook point: armed by Executable(strict/sanitize), see
        # repro.analysis.sanitizer.  None => zero-overhead default path.
        self.sanitizer = None
        # Telemetry hook point: attach_telemetry arms every layer's hooks.
        # None => the default path pays one attribute load + branch.
        self.telemetry = None
        # Run-ledger hook point (attach_ledger): a LedgerWriter streaming
        # phase/heartbeat/progress records to disk during execution.
        # None => zero ledger I/O and no engine hooks installed.
        self.ledger = None
        # Durability hook point (attach_checkpointer): a
        # repro.durability.Checkpointer writing crash-consistent snapshots
        # at engine cadence points.  None => no engine hook installed.
        self.checkpointer = None
        self._health = None
        self.termination = TerminationDetector()
        # Sharded engines get per-rank conservation ledgers so quiescence
        # can be attributed to individual shards in diagnostics.
        if getattr(self.engine, "nshards", 0) > 1:
            self.termination.track_ranks(cluster.nranks)
        base_am = cluster.machine.network.am_overhead
        per_byte = self.config.am_cost_per_byte
        self.comm = CommEngine(
            cluster,
            am_cost_fn=lambda dst, nbytes: base_am + nbytes * per_byte,
            tracer=tracer,
        )
        self.rma = RmaWindow(self.comm)
        self.pools = [WorkerPool(self, r) for r in range(cluster.nranks)]
        # Executables in registration order: the runtime registry walks
        # this list to key graphs/template tasks for event pickling.
        self.executables: list = []
        # The sharded engine reads the termination detector's per-rank
        # ledger to retire drained shards, so it binds back here.
        bind = getattr(self.engine, "bind_runtime", None)
        if bind is not None:
            bind(self)
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def register_executable(self, ex: Any) -> None:
        """Record ``ex`` for registry walks (called by Executable)."""
        self.executables.append(ex)

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Arm the telemetry hooks on every layer this backend owns.

        Binds the bus clock to this backend's engine, installs the
        instrumented ready queues, and points the comm engine and
        termination detector at the same bus.  Attach before submitting
        work (the queue wrappers require empty queues).
        """
        telemetry.bind(self)
        self.telemetry = telemetry
        self.comm.telemetry = telemetry
        self.termination.telemetry = telemetry
        for pool in self.pools:
            pool.enable_telemetry(telemetry)

    def attach_ledger(self, ledger: Any, heartbeat_every: int = 2048) -> None:
        """Stream this execution into ``ledger`` (a
        :class:`~repro.telemetry.ledger.LedgerWriter`).

        Emits the ``build`` phase immediately, installs the engine
        heartbeat hook (a heartbeat plus an incremental progress snapshot
        at least every ``heartbeat_every`` events -- flushed *during*
        execution, so a killed run leaves its last snapshot on disk), and
        on sharded engines arms the
        :class:`~repro.telemetry.health.ShardHealthProfiler` for
        per-window health records.
        """
        self.ledger = ledger
        ledger.phase("build", sim=self.engine.now,
                     nranks=self.nranks, engine=type(self.engine).__name__)

        def _heartbeat(now: float, events: int) -> None:
            ledger.heartbeat(now, events)
            self._ledger_progress(now)

        self.engine.on_heartbeat = _heartbeat
        self.engine.heartbeat_every = heartbeat_every
        if getattr(self.engine, "nshards", 0) > 1:
            from repro.telemetry.health import ShardHealthProfiler

            self._health = ShardHealthProfiler(self)
            self._health.attach()

    def attach_checkpointer(self, checkpointer: Any) -> None:
        """Write crash-consistent checkpoints of this run (a
        :class:`~repro.durability.Checkpointer`).

        Installs the engine's ``on_checkpoint`` hook (same hoisted
        one-int-check pattern as the heartbeat: zero overhead when never
        attached) and registers this backend so every subsequently built
        :class:`~repro.core.graph.Executable` joins the snapshot.  Attach
        before building graphs; see :mod:`repro.durability.checkpoint`
        for the format and the resume/verify semantics.
        """
        self.checkpointer = checkpointer
        checkpointer.bind(self)

    def _ledger_progress(self, sim: float) -> None:
        """One incremental progress snapshot from the live run counters.

        ``tasks_total`` is the termination detector's created count --
        TTG task graphs are dynamic, so the total grows as execution
        discovers work; the watch layer treats it as a moving target.
        """
        term = self.termination
        self.ledger.progress(
            sim,
            tasks_done=term.tasks_retired,
            tasks_total=term.tasks_created,
            by_template=self.stats.tasks_by_template,
            bytes_by_protocol=self.stats.bytes_by_protocol,
            events=self.engine.events_processed,
        )

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
        device: str = "cpu",
        inputs: Tuple[Any, ...] = (),
    ) -> None:
        """Enqueue a ready task on ``rank``'s worker pool (or its device
        queue when ``device == 'gpu'``; ``inputs`` feed the residency
        tracker for PCIe-transfer accounting)."""
        self.termination.task_created(rank)
        self.pools[rank].submit(
            _ReadyTask(fn, flops, bytes_moved, priority, name, key, device, inputs)
        )

    def post_local(self, fn: Callable[..., None], *args: Any,
                   delay: float = 0.0, rank: Optional[int] = None) -> None:
        """Run ``fn`` after the current event (plus ``delay``).

        Used for rank-local message delivery so that all sends made by a
        task body take effect after the body returns, in send order; the
        delay charges local copy costs.  ``rank`` is a shard-routing hint
        for sharded engines (the rank on which the delivery logically
        happens); the sequential engine ignores it.
        """
        term = self.termination
        term.task_created(rank)
        engine = self.engine
        engine.schedule_at(engine.now + delay,
                           _LocalRun(term, fn, args, rank), rank=rank)

    def post_local_batch(
        self,
        calls: "list[Tuple[Callable[..., None], tuple]]",
        *,
        delay: float = 0.0,
        rank: Optional[int] = None,
    ) -> None:
        """Post several local deliveries due at the same instant.

        Semantically identical to calling :meth:`post_local` once per
        ``(fn, args)`` pair, but the whole burst costs one heap entry in
        the event engine (broadcast fan-out posts dozens of same-timestamp
        deliveries; see :meth:`repro.sim.engine.Engine.schedule_batch`).
        """
        if not calls:
            return
        term = self.termination
        wrapped = []
        for fn, args in calls:
            term.task_created(rank)
            wrapped.append((_LocalRun(term, fn, args, rank), ()))
        self.engine.schedule_batch(delay, wrapped, rank=rank)

    # -------------------------------------------------------------- messages

    def serialize(self, value: Any) -> Tuple[Protocol, SerializedMessage]:
        """Pack ``value`` with the best protocol under this backend's rules
        (one pass: selecting a protocol and packing are the same work for
        the generic protocols).

        splitmd is only worth its extra round-trips for payloads beyond the
        eager threshold; small objects always go eager.
        """
        splitmd_ok = self.config.supports_splitmd and (
            int(getattr(value, "nbytes", 0) or 0)
            > self.cluster.machine.network.eager_threshold
        )
        return pack(
            value,
            backend_supports_splitmd=splitmd_ok,
            allowed=self.config.serialization_allowed,
        )

    def send_control(
        self, src: int, dst: int, on_deliver: Callable[[], None], nbytes: int = CONTROL_BYTES
    ) -> None:
        """Small control-only active message (task id, no data)."""
        self.termination.message_sent(src)
        self.stats.remote_messages += 1
        self.stats.remote_bytes += nbytes
        proto_stats = self.stats.bytes_by_protocol
        proto_stats["control"] = proto_stats.get("control", 0) + nbytes
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("messages", protocol="control",
                                src=src, dst=dst).inc()
            tel.metrics.counter("message_bytes", protocol="control").inc(nbytes)

        self.comm.send_am(src, dst, nbytes,
                          _CtrlDeliver(self.termination, dst, on_deliver),
                          tag="ctrl")

    def send_value(
        self,
        src: int,
        dst: int,
        value: Any,
        on_deliver: Callable[[Any], None],
        *,
        tag: str = "data",
        extra_bytes: int = 0,
    ) -> None:
        """Serialize ``value`` and deliver a reconstructed copy at ``dst``.

        Chooses the protocol per the trait order; splitmd sends metadata
        eagerly, RMA-gets the payload, then notifies the sender to release
        the source object.  Copy costs are charged to virtual time.
        ``extra_bytes`` rides along in the eager part (e.g. the task-ID list
        of an optimized broadcast).
        """
        proto, msg = self.serialize(value)
        msg.eager_bytes += extra_bytes
        node = self.cluster.node
        self.termination.message_sent(src)
        self.stats.remote_messages += 1
        self.stats.remote_bytes += msg.total_bytes
        proto_stats = self.stats.bytes_by_protocol
        proto_stats[msg.protocol] = proto_stats.get(msg.protocol, 0) + msg.total_bytes
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("messages", protocol=msg.protocol,
                                src=src, dst=dst).inc()
            tel.metrics.counter("message_bytes", protocol=msg.protocol).inc(
                msg.total_bytes)
        send_start = self.engine.now
        if msg.sender_copy_bytes:
            self.stats.copies += 1
            self.stats.copy_bytes += msg.sender_copy_bytes
            send_start += node.copy_time(msg.sender_copy_bytes)
            if tel is not None:
                tel.metrics.counter("copies", kind="sender", rank=src).inc()
                tel.metrics.counter("copy_bytes", kind="sender").inc(
                    msg.sender_copy_bytes)

        if msg.protocol == "splitmd":
            meta_bytes, payload = msg.payload
            handle = self.rma.register(src, payload, max(msg.rma_bytes, 1))
            self.stats.rma_transfers += 1
            self.stats.rma_bytes += msg.rma_bytes
            # Flow id and phase names exist for the recorded spans only.
            flow = meta_name = rma_name = None
            if tel is not None and tel.bus.recording:
                flow = tel.bus.new_flow()
                meta_name, rma_name = splitmd_phase_names(tag)
            self.comm.send_am(
                src, dst, msg.eager_bytes,
                _OnMeta(self, src, dst, meta_bytes, msg.eager_bytes,
                        msg.rma_bytes, handle, send_start, flow,
                        meta_name, rma_name, on_deliver),
                start=send_start, tag=tag)
        else:
            recv_copy = msg.receiver_copy_bytes
            server_time = node.copy_time(recv_copy) if self._copies_block_am_server() else 0.0
            self.comm.send_am(
                src,
                dst,
                msg.eager_bytes,
                _OnArrival(self, dst, proto, msg, recv_copy, server_time,
                           on_deliver),
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
        tel = self.telemetry
        if not need_copy:
            if self.sanitizer is not None and mode == "cref":
                # The runtime now shares this object with a consumer; any
                # later mutation by the sender is a write-after-share race.
                self.sanitizer.on_cref_share(value)
            if tel is not None:
                tel.metrics.counter("copies_avoided", mode=mode).inc()
                tel.metrics.counter("copy_bytes_avoided", mode=mode).inc(
                    int(getattr(value, "nbytes", 0) or 0))
            return value, 0.0
        nbytes = int(getattr(value, "nbytes", 0) or 0)
        delay = 0.0
        if nbytes:
            self.stats.copies += 1
            self.stats.copy_bytes += nbytes
            delay = self.cluster.node.copy_time(nbytes)
            if tel is not None:
                tel.metrics.counter("copies", kind="local").inc()
                tel.metrics.counter("copy_bytes", kind="local").inc(nbytes)
        clone = getattr(value, "clone", None)
        return (clone() if callable(clone) else value), delay

    # ------------------------------------------------------------------ run

    def run(self, max_events: Optional[int] = None) -> float:
        """Drain all events; returns the makespan (final virtual time).

        Validates termination (no lost messages/tasks) and the data
        life-cycle (every splitmd source released -- the PaRSEC backend
        owns the data flowing through the graph, so a leak is a bug).
        """
        ledger = self.ledger
        if ledger is not None:
            ledger.phase("execute", sim=self.engine.now)
        if self.checkpointer is not None:
            self.checkpointer.phase("execute")
        self.engine.run(max_events=max_events)
        self.termination.validate()
        if ledger is not None:
            ledger.phase("drain", sim=self.engine.now)
            self._ledger_progress(self.engine.now)
        if self.sanitizer is not None and max_events is None:
            self.sanitizer.on_backend_drain(self)
        if max_events is None and self.rma.live_handles():
            from repro.comm.rma import RmaError

            raise RmaError(
                f"{self.rma.live_handles()} splitmd source objects were "
                "never released (data life-cycle leak)"
            )
        self.stats.makespan = self.engine.now
        if self.telemetry is not None:
            self.telemetry.metrics.gauge("makespan").set(self.engine.now)
        if self.checkpointer is not None and max_events is None:
            # Terminal cadence point: a completed run always carries an
            # attestation of its final state (partial drains excluded --
            # more work will follow in the same run).
            self.checkpointer.on_drain(self.engine.now,
                                       self.engine.events_processed)
        return self.engine.now

    def close_ledger(self) -> None:
        """Seal the attached ledger (final snapshot + health summary) and
        disarm the engine hooks.  Idempotent; no-op without a ledger."""
        ledger = self.ledger
        if ledger is None:
            return
        extra = self._health.summary() if self._health is not None else {}
        ledger.close(self.engine.now, makespan=self.stats.makespan, **extra)
        self.engine.on_heartbeat = None
        self.engine.heartbeat_every = 0
        if self._health is not None:
            self._health.detach()
            self._health = None
        self.ledger = None  # a later fence() must not write a sealed ledger

    def close_checkpointer(self) -> None:
        """Disarm the checkpointer's engine hook.  Idempotent; no-op
        without one."""
        if self.checkpointer is None:
            return
        self.checkpointer.detach()
        self.checkpointer = None
