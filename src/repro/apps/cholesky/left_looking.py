"""Left-looking Cholesky as an *alternative TTG* for the same computation.

The paper argues flowgraph programs are "easier to transform"; this module
demonstrates it by expressing the left-looking variant of the
factorization, whose dataflow differs structurally from the right-looking
graph of Fig. 1:

- contributions ``L(m,j) @ L(k,j)^T`` for all ``j < k`` are *streamed*
  into per-tile accumulators via streaming terminals with dynamic sizes
  (``k`` contributions for a tile in column ``k``) -- the dense-linear-
  algebra showcase of the streaming-terminal feature;
- TRSM results are broadcast to the contribution tasks of all *later*
  columns instead of the current trailing submatrix.

Task IDs:

- ``CONTRIB (m, k, j)``: computes ``L(m,j) @ L(k,j)^T`` (j < k <= m) and
  streams it into the accumulator of tile (m, k).
- ``ACCUM (m, k)``: streaming terminal folding the k contributions and
  the original tile; fires POTRF (m == k) or the TRSM operand.
- ``POTRF (k)`` / ``TRSM (m, k)`` / ``RESULT (m, k)``: as before.
"""

from __future__ import annotations

from typing import Tuple

from repro import core as ttg
from repro.core.messaging import TaskOutputs
from repro.linalg.kernels import (
    effective_flops,
    gemm_flops,
    potrf,
    potrf_flops,
    trsm,
    trsm_flops,
)
from repro.linalg.tile import MatrixTile
from repro.linalg.tiled_matrix import TiledMatrix
from repro.runtime.base import Backend

from repro.apps.cholesky.driver import CholeskyResult
from repro.linalg.kernels import cholesky_total_flops


def _outer_update(acc: MatrixTile, contrib: MatrixTile) -> MatrixTile:
    """Stream reducer: acc -= contribution (in place on the accumulator)."""
    if acc.data is not None and contrib.data is not None:
        acc.data = acc.data - contrib.data
    return acc


def build_left_looking_graph(
    a: TiledMatrix, result: TiledMatrix
) -> Tuple[ttg.TaskGraph, ttg.TemplateTask, ttg.TemplateTask]:
    """Build the left-looking TTG; returns (graph, initiator, accum)."""
    nt = a.nt
    owner = a.rank_of
    b = a.b

    to_accum = ttg.Edge("to_accum", key_type=tuple, value_type=MatrixTile)
    to_contrib_row = ttg.Edge("contrib_row", key_type=tuple, value_type=MatrixTile)
    to_contrib_col = ttg.Edge("contrib_col", key_type=tuple, value_type=MatrixTile)
    potrf_trsm = ttg.Edge("potrf_trsm", key_type=tuple, value_type=MatrixTile)
    accum_potrf = ttg.Edge("accum_potrf", key_type=int, value_type=MatrixTile)
    accum_trsm = ttg.Edge("accum_trsm", key_type=tuple, value_type=MatrixTile)
    to_result = ttg.Edge("to_result", key_type=tuple, value_type=MatrixTile)

    def initiator_body(rank: int, outs: TaskOutputs) -> None:
        """Each tile of the lower triangle enters its accumulator stream."""
        for m in range(nt):
            for k in range(m + 1):
                if owner(m, k) != rank:
                    continue
                outs.send(0, (m, k), a.tile_at(m, k))

    def contrib_body(
        key: Tuple[int, int, int],
        lmj: MatrixTile,
        lkj: MatrixTile,
        outs: TaskOutputs,
    ) -> None:
        m, k, j = key
        if lmj.data is not None and lkj.data is not None:
            prod = MatrixTile(lmj.rows, lkj.rows, lmj.data @ lkj.data.T)
        else:
            prod = MatrixTile.synthetic(lmj.rows, lkj.rows)
        outs.send(0, (m, k), prod, mode="move")

    def accum_body(key: Tuple[int, int], tile: MatrixTile, outs: TaskOutputs) -> None:
        m, k = key
        if m == k:
            outs.send("potrf", k, tile, mode="move")
        else:
            outs.send("trsm", (m, k), tile, mode="move")

    def potrf_body(k: int, tile_kk: MatrixTile, outs: TaskOutputs) -> None:
        potrf(tile_kk)
        trsm_keys = [(m, k) for m in range(k + 1, nt)]
        outs.broadcast_multi([("res", [(k, k)]), ("l", trsm_keys)],
                             tile_kk, mode="cref")

    def trsm_body(
        key: Tuple[int, int],
        tile_kk: MatrixTile,
        tile_mk: MatrixTile,
        outs: TaskOutputs,
    ) -> None:
        m, k = key
        trsm(tile_kk, tile_mk)
        # L(m, k) contributes to every later column's accumulators:
        # as the row operand of CONTRIB(m, kk, k) for k < kk <= m,
        # and as the column operand of CONTRIB(mm, m, k) for mm >= m.
        row_ids = [(m, kk, k) for kk in range(k + 1, m + 1)]
        col_ids = [(mm, m, k) for mm in range(m, nt)]
        outs.broadcast_multi(
            [("res", [(m, k)]), ("row", row_ids), ("col", col_ids)],
            tile_mk,
            mode="cref",
        )

    def result_body(key: Tuple[int, int], tile: MatrixTile, outs: TaskOutputs) -> None:
        result.set_tile(key[0], key[1], tile)

    initiator = ttg.make_tt(
        initiator_body, [], [to_accum], name="INITIATOR", keymap=lambda r: r
    )
    contrib = ttg.make_tt(
        contrib_body,
        [to_contrib_row, to_contrib_col],
        [to_accum],
        name="CONTRIB",
        keymap=lambda key: owner(key[0], key[1]),
        priomap=lambda key: 1_000_000 - 1_000 * key[1],
        cost=lambda key, lmj, lkj: effective_flops(
            gemm_flops(lmj.rows, lkj.rows, lmj.cols), lmj.cols
        ),
    )
    accum = ttg.make_tt(
        accum_body,
        [to_accum],
        [accum_potrf, accum_trsm],
        name="ACCUM",
        keymap=lambda key: owner(key[0], key[1]),
        priomap=lambda key: 2_000_000 - 1_000 * key[1],
        output_names=["potrf", "trsm"],
    )
    # Streaming accumulator: the original tile + k contributions for a
    # tile in column k (dynamic size, set by the driver).
    accum.set_input_reducer(0, _outer_update)
    # The driver sizes every ACCUM stream before the first message, so the
    # CONTRIB feedback loop cannot deadlock: waive the unbounded-cycle rule.
    accum.lint_waive("TTG005")
    potrf_tt = ttg.make_tt(
        potrf_body,
        [accum_potrf],
        [to_result, potrf_trsm],
        name="POTRF",
        keymap=lambda k: owner(k, k),
        priomap=lambda k: 4_000_000 - 1_000 * k,
        cost=lambda k, t: effective_flops(potrf_flops(t.rows), t.rows),
        output_names=["res", "l"],
    )
    trsm_tt = ttg.make_tt(
        trsm_body,
        [potrf_trsm, accum_trsm],
        [to_result, to_contrib_row, to_contrib_col],
        name="TRSM",
        keymap=lambda key: owner(key[0], key[1]),
        priomap=lambda key: 3_000_000 - 1_000 * key[1],
        cost=lambda key, lkk, amk: effective_flops(
            trsm_flops(amk.cols) * amk.rows / max(amk.cols, 1), amk.cols
        ),
        output_names=["res", "row", "col"],
    )
    result_tt = ttg.make_tt(
        result_body, [to_result], [], name="RESULT",
        keymap=lambda key: owner(key[0], key[1]),
    )
    graph = ttg.TaskGraph(
        [initiator, contrib, accum, potrf_tt, trsm_tt, result_tt],
        name="cholesky_left",
    )
    return graph, initiator, accum


def cholesky_left_looking(a: TiledMatrix, backend: Backend) -> CholeskyResult:
    """Factor SPD ``a`` with the left-looking TTG variant."""
    result = TiledMatrix(a.n, a.b, a.dist, synthetic=a.synthetic)
    graph, initiator, accum = build_left_looking_graph(a, result)
    ex = graph.executable(backend)
    # The accumulator of tile (m, k) folds 1 original tile + k CONTRIBs.
    for m in range(a.nt):
        for k in range(m + 1):
            ex.set_argstream_size(accum, 0, (m, k), 1 + k)
    t0 = backend.engine.now
    for rank in range(backend.nranks):
        ex.invoke(initiator, rank)
    makespan = ex.fence() - t0
    flops = cholesky_total_flops(a.n)
    return CholeskyResult(
        L=result,
        makespan=makespan,
        gflops=flops / makespan / 1.0e9 if makespan > 0 else 0.0,
        task_counts=dict(ex.task_counts),
        stats=backend.stats.as_dict(),
    )
