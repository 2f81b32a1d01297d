"""Work and span of the POTRF and FW template task graphs.

Both are computed on the templates' task IDs, without running the
simulator.  Each task is priced exactly as the graph's ``cost=`` lambda
prices it: ``effective_flops`` through :meth:`NodeSpec.compute_time`,
task overhead included.  The work ``W`` sums every task the graph runs
and the span ``S`` is the longest dependent chain, a longest-path DP over
the task IDs in topological order.  Tiles are full (``n = nt * b``).

For ``P`` workers in all, every run of the cell satisfies
``makespan >= max(S, W / P)``.  A greedy scheduler that pays nothing to
move data (one node, zero-cost network) also satisfies Graham's bound
``makespan <= W / P + S``.

Every rank runs one INITIATOR task.  ``W`` counts one of them, so it is
exact on one node and a lower bound on more.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.linalg.kernels import (
    effective_flops,
    fw_flops,
    gemm_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)
from repro.sim.node import NodeSpec


class WorkSpan(NamedTuple):
    """Total work and span of one cell, in modelled seconds."""

    work: float
    span: float

    def lower_bound(self, workers: int) -> float:
        """``max(S, W / P)``: no schedule on ``workers`` workers is faster."""
        return max(self.span, self.work / workers)

    def graham_bound(self, workers: int) -> float:
        """``W / P + S``: no greedy schedule without data movement is slower."""
        return self.work / workers + self.span


def potrf_work_span(nt: int, b: int, node: NodeSpec) -> WorkSpan:
    """W and S of the Cholesky TTG (:mod:`repro.apps.cholesky.graph`)."""
    o = node.task_overhead
    potrf = node.compute_time(effective_flops(potrf_flops(b), b))
    trsm = node.compute_time(effective_flops(trsm_flops(b), b))
    syrk = node.compute_time(effective_flops(syrk_flops(b), b))
    gemm = node.compute_time(effective_flops(gemm_flops(b, b, b), b))
    pairs = nt * (nt - 1) // 2
    work = (
        o  # INITIATOR
        + nt * potrf
        + pairs * (trsm + syrk)
        + nt * (nt - 1) * (nt - 2) // 6 * gemm
        + (nt + pairs) * o  # RESULT
    )
    # tile[m, n]: finish time of the last task that updated tile (m, n),
    # m >= n; entries above the diagonal are never read.
    tile = np.full((nt, nt), float(o))
    span = 0.0
    for k in range(nt):
        f_potrf = tile[k, k] + potrf
        f_trsm = np.maximum(f_potrf, tile[k + 1:, k]) + trsm
        span = max(span, f_potrf + o, f_trsm.max(initial=0.0) + o)  # + RESULT
        trailing = tile[k + 1:, k + 1:]
        f_syrk = np.maximum(f_trsm, trailing.diagonal()) + syrk
        trailing[...] = np.maximum(np.maximum.outer(f_trsm, f_trsm), trailing) + gemm
        np.fill_diagonal(trailing, f_syrk)
    return WorkSpan(work, float(span))


def fw_work_span(nt: int, b: int, node: NodeSpec) -> WorkSpan:
    """W and S of the FW-APSP TTG (:mod:`repro.apps.floydwarshall.graph`)."""
    o = node.task_overhead
    kernel = node.compute_time(effective_flops(fw_flops(b), b))
    work = o + nt**3 * kernel + nt * nt * o  # INITIATOR, A/B/C/D, RESULT
    # tile[i, j]: finish time of the last task that updated tile (i, j).
    tile = np.full((nt, nt), float(o))
    for k in range(nt):
        f_a = tile[k, k] + kernel
        row = np.maximum(f_a, tile[k, :]) + kernel  # B(k, j)
        col = np.maximum(f_a, tile[:, k]) + kernel  # C(i, k)
        tile = np.maximum(np.maximum.outer(col, row), tile) + kernel  # D(i, j, k)
        tile[k, :], tile[:, k] = row, col
        tile[k, k] = f_a
    span = tile.max() + o
    return WorkSpan(work, float(span))
