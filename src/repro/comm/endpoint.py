"""CommEngine: event-driven message passing with per-rank AM servers.

Each rank has a communication thread that processes arriving active messages
sequentially (MADNESS dedicates exactly one such thread; PaRSEC's is cheap).
``send_am`` charges the network for the wire transfer and the receiving AM
server for handler processing; the handler callback then runs at the
processed time.  Per-(src) injection order is FIFO by construction of the
NIC model, so channels preserve message order.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.cluster import Cluster
from repro.sim.trace import Tracer
from repro.telemetry.events import SPAN, TID_AM, TID_RMA

#: ``EventBus.record`` arg names of the AM/RMA spans.
_COMM_ARGS = ("src", "nbytes")


class CommEngine:
    """Messaging endpoint bound to a cluster.

    Parameters
    ----------
    cluster:
        The virtual machine to charge costs against.
    am_cost_fn:
        ``f(dst_rank, nbytes) -> seconds`` of AM-server processing per
        message; backends install their own (MADNESS charges deserialization
        copies here, serializing them through its single server thread).
    tracer:
        Optional tracer for message records.
    """

    def __init__(
        self,
        cluster: Cluster,
        am_cost_fn: Optional[Callable[[int, int], float]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.network = cluster.network
        self.tracer = tracer
        # Set by Backend.attach_telemetry; None => hooks are one branch.
        self.telemetry = None
        base = cluster.machine.network.am_overhead
        self._am_cost_fn = am_cost_fn or (lambda dst, nbytes: base)
        self._am_free = [0.0] * cluster.nranks
        # Statistics
        self.am_count = 0
        self.am_bytes = 0
        self.rma_count = 0
        self.rma_bytes = 0

    # ------------------------------------------------------------------ AMs

    def send_am(
        self,
        src: int,
        dst: int,
        nbytes: int,
        handler: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
        tag: str = "",
        extra_server_time: float = 0.0,
    ) -> None:
        """Send an active message; ``handler(*args)`` runs at the receiver
        once the message has arrived and been processed by the AM server.

        ``extra_server_time`` adds processing that *occupies* the receiving
        AM server (e.g. MADNESS deserialization copies run on its single
        server thread, delaying every later message to that rank).
        """
        t_sent = self.engine.now if start is None else start
        arrival = self.network.send(src, dst, nbytes, start=t_sent)
        self.am_count += 1
        self.am_bytes += nbytes
        proc = self._am_cost_fn(dst, nbytes) + extra_server_time
        # The AM server handles one message at a time.
        begin = self._am_free[dst]
        if begin < arrival:
            begin = arrival
        done = begin + proc
        self._am_free[dst] = done
        if self.tracer is not None:
            self.tracer.record_message(src, dst, nbytes, t_sent, done, tag=tag)
        tel = self.telemetry
        if tel is not None:
            if tel.bus.recording:
                tel.bus.record(SPAN, f"am:{tag or 'am'}", "comm", dst, TID_AM,
                               t_sent, done, None, _COMM_ARGS, src, nbytes)
            tel.metrics.counter("am", dst=dst).inc()
            tel.metrics.counter("am_bytes", dst=dst).inc(nbytes)
            tel.metrics.histogram("am_latency", dst=dst).observe(done - t_sent)
        self.engine.schedule_at(done, handler, *args, rank=dst)

    # ------------------------------------------------------------------ RMA

    def rma_get(
        self,
        origin: int,
        target: int,
        nbytes: int,
        on_complete: Callable[..., Any],
        *args: Any,
        tag: str = "rma",
    ) -> None:
        """One-sided get of ``nbytes`` from ``target`` into ``origin``.

        Bypasses the AM server (the payload lands directly in registered
        memory); ``on_complete(*args)`` fires at the origin when done.
        """
        t0 = self.engine.now
        done = self.network.rma_get(origin, target, nbytes)
        self.rma_count += 1
        self.rma_bytes += nbytes
        if self.tracer is not None:
            self.tracer.record_message(target, origin, nbytes, t0, done, tag=tag)
        tel = self.telemetry
        if tel is not None:
            if tel.bus.recording:
                tel.bus.record(SPAN, f"rma:{tag}", "comm", origin, TID_RMA,
                               t0, done, None, _COMM_ARGS, target, nbytes)
            tel.metrics.counter("rma_gets", origin=origin).inc()
            tel.metrics.counter("rma_get_bytes", origin=origin).inc(nbytes)
        self.engine.schedule_at(done, on_complete, *args, rank=origin)
