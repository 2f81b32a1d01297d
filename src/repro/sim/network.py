"""Network model: postal (alpha/beta) costs plus NIC injection serialization.

Every message pays ``latency + nbytes / bandwidth``.  In addition, a node's
network interface can only inject (and optionally eject) one message at a
time, so concurrent messages from the same node serialize on the NIC.  This
is the effect that makes communication-volume differences (2D vs 2.5D SUMMA,
optimized vs naive broadcast) visible in the simulated timings.

An optional *bisection* channel models finite global cross-section bandwidth:
all inter-node traffic additionally shares a backbone whose capacity grows
with the square root of the node count (a fat-tree-like scaling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import Engine


@dataclass(frozen=True)
class NetworkSpec:
    """Static description of an interconnect.

    Attributes
    ----------
    latency:
        One-way small-message latency in seconds (the "alpha" term).
    bandwidth:
        Per-NIC point-to-point bandwidth in bytes/second (the "beta" term).
    eager_threshold:
        Messages at or below this size use the eager protocol (single
        transfer); larger ones use rendezvous (extra latency round-trip).
    am_overhead:
        CPU-side cost to process one arriving active message, charged on the
        receiving rank's communication thread.
    bisection_per_node:
        Per-node contribution to global cross-section bandwidth (bytes/s).
        ``None`` disables the backbone channel.
    """

    latency: float = 1.0e-6
    bandwidth: float = 12.0e9
    eager_threshold: int = 8192
    am_overhead: float = 0.5e-6
    bisection_per_node: Optional[float] = None

    @property
    def lookahead(self) -> float:
        """Static lower bound on the virtual-time distance of any
        point-to-point cross-rank interaction: a remote message can never
        land sooner than one wire latency after it was sent.  This is the
        conservative window floor used by
        :class:`repro.sim.sharded.ShardedEngine` (Chandy--Misra--Bryant
        with a static bound, so no null messages are required)."""
        return self.latency


class NetworkModel:
    """Stateful network simulator bound to an :class:`Engine`.

    The model tracks, per node, the time at which the injection (TX) NIC
    channel becomes free, and a single shared backbone channel when
    cross-section modelling is enabled (bulk transfers only -- control
    messages interleave at packet granularity).
    """

    def __init__(self, spec: NetworkSpec, nnodes: int, engine: Engine) -> None:
        if nnodes < 1:
            raise ValueError("nnodes must be >= 1")
        self.spec = spec
        self.nnodes = nnodes
        self.engine = engine
        self._tx_free = [0.0] * nnodes
        self._backbone_free = 0.0
        if spec.bisection_per_node is not None:
            # Cross-section bandwidth of a full-bisection fabric degrades
            # sub-linearly in practice; sqrt scaling is a common fat-tree
            # approximation.
            self._backbone_bw: Optional[float] = spec.bisection_per_node * math.sqrt(
                max(nnodes, 1)
            )
        else:
            self._backbone_bw = None
        # Aggregate statistics.
        self.messages_sent = 0
        self.bytes_sent = 0

    def transfer_time(self, nbytes: int) -> float:
        """Unloaded (contention-free) transfer time for ``nbytes``."""
        t = self.spec.latency + nbytes / self.spec.bandwidth
        if nbytes > self.spec.eager_threshold:
            # Rendezvous handshake: request + clear-to-send.
            t += 2.0 * self.spec.latency
        return t

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        start: Optional[float] = None,
        handshake: bool = True,
    ) -> float:
        """Reserve channel time for one message; return its arrival time.

        ``start`` defaults to the current virtual time.  Local (same-node)
        messages bypass the NIC entirely and only pay a small software cost.
        ``handshake=False`` skips the rendezvous round-trip for transfers
        that already negotiated (RMA payloads).
        """
        if not (0 <= src < self.nnodes and 0 <= dst < self.nnodes):
            raise ValueError(f"rank out of range: {src}->{dst} of {self.nnodes}")
        if nbytes < 0:
            raise ValueError("negative message size")
        t0 = self.engine.now if start is None else start
        spec = self.spec
        self.messages_sent += 1
        if src == dst:
            # Intra-node: a software queue hop, no NIC involvement.
            return t0 + spec.am_overhead
        self.bytes_sent += nbytes
        bulk = nbytes > spec.eager_threshold
        if handshake and bulk:
            t0 = t0 + 2.0 * spec.latency  # rendezvous handshake
        # A channel carries one message at a time: an occupation begins at
        # max(channel free, requested start).
        tx_begin = self._tx_free[src]
        if tx_begin < t0:
            tx_begin = t0
        tx_end = tx_begin + nbytes / spec.bandwidth
        self._tx_free[src] = tx_end
        arrive = tx_end + spec.latency
        if bulk and self._backbone_bw is not None:
            # Only bulk payloads contend for cross-section bandwidth; small
            # and control messages interleave at packet granularity on real
            # fabrics and never queue behind bulk transfers.
            bb_begin = self._backbone_free
            if bb_begin < tx_begin:
                bb_begin = tx_begin
            bb_end = bb_begin + nbytes / self._backbone_bw
            self._backbone_free = bb_end
            arrive = max(arrive, bb_end + spec.latency)
        return arrive

    def rma_get(self, origin: int, target: int, nbytes: int) -> float:
        """One-sided get: request message to target, bulk payload back.

        Returns the time at which the payload has fully landed at ``origin``.
        The request is a small control message; the payload occupies the
        *target's* TX NIC (it is read from the target's memory).
        """
        req_arrive = self.send(origin, target, 64)
        # The request was the handshake; the payload streams immediately.
        return self.send(target, origin, nbytes, start=req_arrive, handshake=False)

    def bcast_time(self, nranks: int, nbytes: int) -> float:
        """Unloaded duration of a binomial-tree broadcast among ``nranks``."""
        if nranks <= 1:
            return 0.0
        stages = math.ceil(math.log2(nranks))
        return stages * self.transfer_time(nbytes)

    def allreduce_time(self, nranks: int, nbytes: int) -> float:
        """Unloaded duration of a (reduce+bcast) allreduce."""
        return 2.0 * self.bcast_time(nranks, nbytes)

    def barrier_time(self, nranks: int) -> float:
        """Unloaded duration of a dissemination barrier."""
        if nranks <= 1:
            return 0.0
        return math.ceil(math.log2(nranks)) * 2.0 * self.spec.latency
