"""Compute-node model: a pool of identical workers with a flop rate.

A node executes tasks; each task occupies one worker for
``flops / flops_per_worker + task_overhead`` seconds.  Memory-bandwidth-bound
kernels can instead express their cost in bytes moved via ``mem_bandwidth``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a compute node.

    Attributes
    ----------
    workers:
        Number of worker threads devoted to task execution (the paper pins
        60 of 64 cores per NUMA domain on Hawk, leaving cores for OS and
        communication threads).
    flops_per_worker:
        Sustained double-precision flop rate of one worker (flop/s).
    mem_bandwidth:
        Sustained per-node memory bandwidth (bytes/s) used for
        bandwidth-bound kernel costs and in-memory copies.
    task_overhead:
        Fixed per-task scheduling/dispatch cost in seconds.
    copy_bandwidth:
        Single-thread memcpy/pack rate (bytes/s).  Serialization copies run
        on one thread, far below the node's aggregate memory bandwidth --
        this is what makes copy-avoiding protocols (splitmd, runtime-owned
        data) pay off, as the paper reports.
    """

    workers: int = 60
    flops_per_worker: float = 30.0e9
    mem_bandwidth: float = 150.0e9
    task_overhead: float = 2.0e-6
    copy_bandwidth: float = 8.0e9

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.flops_per_worker <= 0 or self.mem_bandwidth <= 0:
            raise ValueError("rates must be positive")
        if self.copy_bandwidth <= 0:
            raise ValueError("copy_bandwidth must be positive")
        if self.task_overhead < 0:
            raise ValueError("task_overhead must be >= 0")

    def compute_time(self, flops: float, bytes_moved: float = 0.0) -> float:
        """Roofline-style execution time of one task on one worker.

        The task takes the max of its compute time and its memory time plus
        the fixed dispatch overhead.  ``bytes_moved`` uses the full node
        memory bandwidth divided among workers (pessimistic under low
        occupancy, adequate for shape studies).
        """
        t_flops = flops / self.flops_per_worker
        t_mem = bytes_moved / (self.mem_bandwidth / self.workers)
        return max(t_flops, t_mem) + self.task_overhead

    def copy_time(self, nbytes: float) -> float:
        """Time for one single-threaded serialization copy of ``nbytes``."""
        return nbytes / self.copy_bandwidth

    @property
    def node_flops(self) -> float:
        """Aggregate flop rate of the whole node."""
        return self.workers * self.flops_per_worker
