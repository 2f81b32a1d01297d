"""Tests for the comparator models."""

import numpy as np
import pytest

from repro.apps.mra import random_gaussians
from repro.baselines import (
    BulkSyncExecutor,
    Round,
    chameleon_cholesky,
    dbcsr_multiply,
    dplasma_cholesky,
    forkjoin_fw,
    madness_mra,
    scalapack_cholesky,
    slate_cholesky,
)
from repro.baselines.cholesky_variants import _update_work
from repro.linalg import BlockCyclicDistribution, TiledMatrix, yukawa_blocksparse
from repro.sim.cluster import Cluster, HAWK


def cluster(nodes=4, workers=16):
    return Cluster(HAWK.with_workers(workers), nodes)


# ----------------------------------------------------------------- bulksync


def test_round_duration_brent_bound():
    ex = BulkSyncExecutor(cluster(1, workers=4))
    rate = HAWK.node.flops_per_worker
    # work-bound: 8 units of work over 4 workers
    t = ex.run([Round(work={0: 8 * rate})])
    assert t == pytest.approx(2.0, rel=1e-6)
    # cp-bound
    ex2 = BulkSyncExecutor(cluster(1, workers=4))
    t2 = ex2.run([Round(work={0: 4 * rate}, critical_path={0: 3 * rate})])
    assert t2 == pytest.approx(3.0, rel=1e-6)
    # a chain longer than the rank's work is clamped to the work
    ex3 = BulkSyncExecutor(cluster(1, workers=4))
    t3 = ex3.run([Round(work={0: 2 * rate}, critical_path={0: 5 * rate})])
    assert t3 == pytest.approx(2.0, rel=1e-6)


def test_round_max_over_ranks_plus_comm_barrier():
    cl = cluster(4)
    ex = BulkSyncExecutor(cl)
    rate = cl.node.flops_per_worker * cl.node.workers
    t = ex.run([Round(work={0: rate, 1: 2 * rate}, comm=0.5)])
    barrier = cl.network.barrier_time(4)
    assert t == pytest.approx(2.0 + 0.5 + barrier, rel=1e-6)
    bd = ex.breakdown()
    assert bd["comm"] == pytest.approx(0.5)


def test_empty_round():
    ex = BulkSyncExecutor(cluster(2))
    assert ex.run([Round()]) == pytest.approx(
        cluster(2).network.barrier_time(2)
    )


# ----------------------------------------------------------------- cholesky


def test_forkjoin_cholesky_results_sane():
    cl = cluster(4)
    sc = scalapack_cholesky(cl, 8192)
    sl = slate_cholesky(cl, 8192)
    assert 0 < sc.gflops < cl.peak_gflops
    assert 0 < sl.gflops < cl.peak_gflops
    assert sc.makespan > 0 and sl.makespan > 0


def test_update_work_sums_like_the_tile_loop():
    """The vectorised trailing update adds each rank's kernels in the
    loop's order, so the per-rank sums are bit-identical to it."""
    syrk, gemm = 0.1, 0.7  # inexact in binary: order-sensitive sums
    for nt, prows, pcols in ((1, 1, 1), (7, 2, 3), (12, 4, 4), (9, 3, 1)):
        owner = np.array([[(i % prows) * pcols + j % pcols for j in range(nt)]
                          for i in range(nt)])
        for k in range(nt):
            ref = {}
            for m in range(k + 1, nt):
                r = int(owner[m, m])
                ref[r] = ref.get(r, 0.0) + syrk
                for n in range(k + 1, m):
                    r = int(owner[m, n])
                    ref[r] = ref.get(r, 0.0) + gemm
            assert _update_work(owner, k, syrk, gemm) == ref, (nt, k)


def test_taskbased_beats_forkjoin_at_scale():
    nodes, n = 8, 11264
    cl = cluster(nodes)
    a = TiledMatrix(n, 256, BlockCyclicDistribution.for_ranks(nodes), synthetic=True)
    dp = dplasma_cholesky(cl, a)
    sc = scalapack_cholesky(cl, n)
    assert dp.gflops > sc.gflops  # the paper's two groups


def test_chameleon_close_to_dplasma():
    nodes, n = 4, 8192
    a1 = TiledMatrix(n, 256, BlockCyclicDistribution.for_ranks(nodes), synthetic=True)
    a2 = TiledMatrix(n, 256, BlockCyclicDistribution.for_ranks(nodes), synthetic=True)
    dp = dplasma_cholesky(cluster(nodes), a1)
    ch = chameleon_cholesky(cluster(nodes), a2)
    assert ch.gflops <= dp.gflops * 1.05
    assert ch.gflops >= dp.gflops * 0.5


def test_scalapack_weak_scaling_grows():
    g = [scalapack_cholesky(cluster(p), 4096 * int(p**0.5)).gflops for p in (1, 4, 16)]
    assert g[0] < g[1] < g[2]


# ----------------------------------------------------------------------- fw


def test_forkjoin_fw_sane_and_square_grids():
    r4 = forkjoin_fw(cluster(4), 2048, 64)
    assert 0 < r4.gflops
    # non-square counts waste ranks: 8 nodes no faster than 4-node grid
    r8 = forkjoin_fw(cluster(8), 2048, 64)
    assert r8.gflops <= r4.gflops * 1.3


def test_forkjoin_fw_breakdown():
    r = forkjoin_fw(cluster(4), 2048, 64)
    assert set(r.breakdown) == {"compute", "comm", "barrier"}
    assert r.breakdown["compute"] > 0


# -------------------------------------------------------------------- dbcsr


def test_dbcsr_picks_no_replication_small_scale():
    m = yukawa_blocksparse(60, target_tile=48, seed=1, synthetic=True)
    r = dbcsr_multiply(cluster(4), m, m)
    assert r.replication == 1
    assert r.gflops > 0


def test_dbcsr_replicates_at_scale():
    m = yukawa_blocksparse(120, target_tile=48, decay_length=2.5, seed=2,
                           synthetic=True)
    small = dbcsr_multiply(cluster(8), m, m)
    big = dbcsr_multiply(cluster(128), m, m)
    assert big.replication >= small.replication
    assert big.replication > 1  # 2.5D kicks in where comm dominates


def test_dbcsr_scales():
    m = yukawa_blocksparse(120, target_tile=48, decay_length=2.5, seed=3,
                           synthetic=True)
    g = [dbcsr_multiply(cluster(p), m, m).gflops for p in (4, 16, 64)]
    assert g[0] < g[1] < g[2]


# ---------------------------------------------------------------------- mra


def test_madness_mra_model():
    funcs = random_gaussians(4, d=2, exponent=1000.0, seed=1)
    r = madness_mra(cluster(4), funcs, k=4, thresh=1e-4, max_level=8)
    assert r.makespan > 0
    assert r.total_nodes > 4
    assert set(r.breakdown) == {"compute", "comm", "barrier"}


def test_madness_mra_scales_then_saturates():
    funcs = random_gaussians(8, d=2, exponent=2000.0, seed=2)
    # Charge work/bytes as the paper's order-10 3-D tensors (as the figure
    # benchmarks do) so compute and comm are in a realistic ratio.
    times = [
        madness_mra(cluster(p), funcs, k=4, thresh=1e-4, max_level=8,
                    inflate=16.0, flops_scale=40.0).makespan
        for p in (1, 4, 16)
    ]
    assert times[1] < times[0]  # some scaling
    # efficiency degrades (barriers + serial AM thread)
    speedup_4 = times[0] / times[1]
    speedup_16 = times[0] / times[2]
    assert speedup_16 < 16 * 0.8
