"""Collective operations: event-driven and analytic forms.

The bulk-synchronous baselines (ScaLAPACK, SLATE, MPI+OpenMP FW, native
MADNESS) are built from rounds of collectives; the analytic duration helpers
let their executors charge collective costs without simulating every tree
message.  The event-driven ``barrier`` is used where code actually needs a
synchronization point in the event stream.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.comm.endpoint import CommEngine


class Collectives:
    """Tree-based collectives over a :class:`CommEngine`."""

    def __init__(self, comm: CommEngine) -> None:
        self.comm = comm
        self.network = comm.network
        self.engine = comm.engine

    # ------------------------------------------------------------ analytic

    def bcast_duration(self, nranks: int, nbytes: int) -> float:
        """Binomial-tree broadcast duration (unloaded)."""
        return self.network.bcast_time(nranks, nbytes)

    def reduce_duration(self, nranks: int, nbytes: int) -> float:
        """Binomial-tree reduction duration (unloaded)."""
        return self.network.bcast_time(nranks, nbytes)

    def allreduce_duration(self, nranks: int, nbytes: int) -> float:
        return self.network.allreduce_time(nranks, nbytes)

    def allgather_duration(self, nranks: int, nbytes_each: int) -> float:
        """Ring allgather: (P-1) steps of nbytes_each."""
        if nranks <= 1:
            return 0.0
        return (nranks - 1) * self.network.transfer_time(nbytes_each)

    def barrier_duration(self, nranks: int) -> float:
        return self.network.barrier_time(nranks)

    # --------------------------------------------------------- event-driven

    def barrier(self, ranks: Sequence[int], on_release: Callable[[], None]) -> None:
        """Release ``on_release`` once all ``ranks`` have reached the barrier
        (dissemination cost charged once)."""
        delay = self.barrier_duration(len(ranks))
        tel = self.comm.telemetry
        if tel is not None:
            if tel.bus.recording:
                from repro.telemetry.events import TID_RT

                tel.bus.instant("barrier", min(ranks, default=0), TID_RT,
                                cat="coll", nranks=len(ranks), duration=delay)
            tel.metrics.counter("collectives", op="barrier").inc()
        self.engine.schedule(delay, on_release,
                             rank=min(ranks, default=None))

    def bcast(
        self,
        root: int,
        ranks: Sequence[int],
        nbytes: int,
        deliver: Callable[[int], None],
    ) -> None:
        """Event-driven binomial broadcast: ``deliver(rank)`` fires on each
        non-root rank when its copy arrives."""
        others = [r for r in ranks if r != root]
        if not others:
            return
        # Binomial tree: stage s reaches ranks at distance 2^s in the list.
        order: list[tuple[int, int]] = []  # (rank, stage)
        frontier = [root]
        remaining = list(others)
        stage = 0
        while remaining:
            stage += 1
            new_frontier = []
            for src in frontier:
                if not remaining:
                    break
                dst = remaining.pop(0)
                order.append((dst, stage))
                new_frontier.append(dst)
            frontier += new_frontier
        t_hop = self.network.transfer_time(nbytes)
        tel = self.comm.telemetry
        if tel is not None:
            if tel.bus.recording:
                from repro.telemetry.events import TID_RT

                tel.bus.instant("bcast", root, TID_RT, cat="coll",
                                nranks=len(ranks), nbytes=nbytes,
                                stages=order[-1][1] if order else 0)
            tel.metrics.counter("collectives", op="bcast").inc()
            tel.metrics.counter("collective_bytes", op="bcast").inc(
                nbytes * len(order))
        for dst, s in order:
            self.engine.schedule(s * t_hop, deliver, dst, rank=dst)
