"""Round-synchronous (BSP) executor on the simulated machine.

The fork-join/bulk-synchronous comparators are sequences of *rounds*; each
round has per-rank compute work, a communication phase that does not
overlap compute, and a closing barrier.  A round's duration is::

    max_over_ranks( compute_time(rank) ) + comm + barrier

where a rank's compute time honours Brent's bound --
``max(total_work / (workers * rate), min(critical_path, total_work) / rate)``
-- so limited task parallelism (the fork-join pathology the paper
highlights) is charged faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.sim.cluster import Cluster


@dataclass
class Round:
    """One BSP round.

    Attributes
    ----------
    work:
        flops per rank (only ranks with work need appear).
    critical_path:
        flops of the longest dependent chain per rank (0 if omitted: the
        work spreads over every worker).  A chain longer than the rank's
        work is charged as the work.
    comm:
        duration of the round's communication phase in seconds (use the
        :class:`~repro.sim.network.NetworkModel` collective times,
        e.g. ``bcast_time`` and ``allreduce_time``).
    name:
        label for the timeline.
    """

    work: Dict[int, float] = field(default_factory=dict)
    critical_path: Dict[int, float] = field(default_factory=dict)
    comm: float = 0.0
    name: str = ""


@dataclass
class RoundTiming:
    name: str
    compute: float
    comm: float
    barrier: float

    @property
    def total(self) -> float:
        return self.compute + self.comm + self.barrier


class BulkSyncExecutor:
    """Executes rounds against a cluster's cost model."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.timeline: List[RoundTiming] = []

    def _compute_time(self, flops: float, cp: float) -> float:
        node = self.cluster.node
        rate = node.flops_per_worker
        # A chain cannot hold more work than the rank has.
        return max(flops / (node.workers * rate), min(cp, flops) / rate)

    def run(self, rounds: List[Round]) -> float:
        """Total makespan of the round sequence."""
        net = self.cluster.network
        barrier = net.barrier_time(self.cluster.nranks)
        total = 0.0
        for r in rounds:
            compute = 0.0
            for rank, w in r.work.items():
                cp = r.critical_path.get(rank, 0.0)
                compute = max(compute, self._compute_time(w, cp))
            t = RoundTiming(r.name, compute, r.comm, barrier)
            self.timeline.append(t)
            total += t.total
        return total

    def breakdown(self) -> Dict[str, float]:
        """Aggregate time per component across all executed rounds."""
        out = {"compute": 0.0, "comm": 0.0, "barrier": 0.0}
        for t in self.timeline:
            out["compute"] += t.compute
            out["comm"] += t.comm
            out["barrier"] += t.barrier
        return out
