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
from repro.telemetry.events import SPAN, TID_AM, TID_RMA, Handles

#: ``EventBus.record`` arg names of the AM/RMA spans.
_COMM_ARGS = ("src", "nbytes")


class CommEngine:
    """Messaging endpoint bound to a cluster.

    Parameters
    ----------
    cluster:
        The virtual machine to charge costs against.
    am_cost_per_byte:
        AM-server processing per message byte, on top of the machine's AM
        overhead (MADNESS charges its single server thread this way).
    """

    def __init__(
        self,
        cluster: Cluster,
        am_cost_per_byte: float = 0.0,
    ) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.network = cluster.network
        # Set by Backend.attach_telemetry, with the recording bus's
        # per-rank logs; None => hooks are one branch.
        self.telemetry = None
        self._logs: Optional[list] = None
        self._am_base = cluster.machine.network.am_overhead
        self._am_per_byte = am_cost_per_byte
        self._am_free = [0.0] * cluster.nranks
        # Statistics
        self.am_count = 0
        self.am_bytes = 0
        self.rma_count = 0
        self.rma_bytes = 0

    def attach_telemetry(self, telemetry: Any) -> None:
        """Arm the AM and RMA hooks of a recording bus: per (tag, rank),
        the span head, resolved at its first message."""
        self.telemetry = telemetry
        if not telemetry.bus.recording:
            return
        self._am_heads = Handles(lambda k: (
            SPAN, f"am:{k[0] or 'am'}", "comm", k[1], TID_AM, _COMM_ARGS))
        self._rma_heads = Handles(lambda k: (
            SPAN, f"rma:{k[0]}", "comm", k[1], TID_RMA, _COMM_ARGS))
        self._logs = telemetry.bus.logs

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
        proc = self._am_base + nbytes * self._am_per_byte + extra_server_time
        # The AM server handles one message at a time.
        begin = self._am_free[dst]
        if begin < arrival:
            begin = arrival
        done = begin + proc
        self._am_free[dst] = done
        logs = self._logs
        if logs is not None:
            logs[dst].extend((self._am_heads[(tag, dst)], t_sent, done, None,
                              src, nbytes))
        self.engine.schedule_at(done, handler, *args)

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
        logs = self._logs
        if logs is not None:
            logs[origin].extend((self._rma_heads[(tag, origin)], t0, done,
                                 None, target, nbytes))
        self.engine.schedule_at(done, on_complete, *args)
