"""Tests for TiledMatrix, block-cyclic distribution, kernels, generators."""

import numpy as np
import pytest

from repro.linalg.blocksparse import BlockSparseMatrix, IrregularTiling
from repro.linalg.generators import random_weight_matrix, spd_matrix, yukawa_blocksparse
from repro.linalg.kernels import (
    cholesky_total_flops,
    effective_flops,
    fw_closure,
    fw_flops,
    fw_kernel,
    fw_total_flops,
    gemm,
    gemm_accumulate,
    gemm_flops,
    kernel_efficiency,
    potrf,
    potrf_flops,
    syrk,
    syrk_flops,
    trsm,
    trsm_flops,
)
from repro.linalg.tile import MatrixTile
from repro.linalg.tiled_matrix import BlockCyclicDistribution, TiledMatrix, grid_dims


# -------------------------------------------------------------- distribution


@pytest.mark.parametrize("p,expect", [(1, (1, 1)), (4, (2, 2)), (6, (2, 3)),
                                      (7, (1, 7)), (12, (3, 4)), (64, (8, 8))])
def test_grid_dims(p, expect):
    assert grid_dims(p) == expect


def test_block_cyclic_partition():
    dist = BlockCyclicDistribution(2, 3)
    nt = 7
    owned = {}
    for r in range(dist.nranks):
        for ij in dist.tiles_of_rank(r, nt):
            assert ij not in owned
            owned[ij] = r
    assert len(owned) == nt * nt
    for (i, j), r in owned.items():
        assert dist.rank_of(i, j) == r


def test_distribution_validation():
    with pytest.raises(ValueError):
        BlockCyclicDistribution(0, 1)
    for nranks in (0, -1):
        with pytest.raises(ValueError, match="nranks must be >= 1"):
            grid_dims(nranks)
        with pytest.raises(ValueError, match="nranks must be >= 1"):
            BlockCyclicDistribution.for_ranks(nranks)


# --------------------------------------------------------------- TiledMatrix


def test_from_to_dense_roundtrip():
    a = np.arange(49.0).reshape(7, 7)
    m = TiledMatrix.from_dense(a, 3)
    assert m.nt == 3
    assert m.tile_rows(2) == 1  # ragged
    assert np.array_equal(m.to_dense(), a)


def test_lower_only_storage():
    a = spd_matrix(8, seed=1)
    m = TiledMatrix.from_dense(a, 4, lower_only=True)
    assert m.has_tile(1, 0) and not m.has_tile(0, 1)
    dense = m.to_dense()
    assert np.array_equal(np.tril(dense), np.tril(a))


def test_tile_shape_validation():
    m = TiledMatrix(8, 4)
    with pytest.raises(ValueError):
        m.set_tile(0, 0, MatrixTile.zeros(3, 3))
    with pytest.raises(IndexError):
        m.tile_rows(5)


def test_missing_tile_raises_unless_synthetic():
    m = TiledMatrix(8, 4)
    with pytest.raises(KeyError):
        m.tile_at(0, 0)
    s = TiledMatrix(8, 4, synthetic=True)
    t = s.tile_at(0, 0)
    assert t.is_synthetic and t.shape == (4, 4)


def test_invalid_sizes():
    with pytest.raises(ValueError):
        TiledMatrix(0, 4)
    with pytest.raises(ValueError):
        TiledMatrix.from_dense(np.zeros((3, 4)), 2)


# ------------------------------------------------------------------- kernels


def test_potrf_kernel():
    a = spd_matrix(8, seed=2)
    t = MatrixTile(8, 8, a.copy())
    potrf(t)
    assert np.allclose(t.data, np.linalg.cholesky(a))


def test_potrf_failure():
    from repro.linalg.kernels import KernelError

    with pytest.raises(KernelError):
        potrf(MatrixTile(2, 2, -np.eye(2)))


def test_trsm_kernel():
    rng = np.random.default_rng(3)
    l = np.linalg.cholesky(spd_matrix(4, seed=3))
    b = rng.standard_normal((6, 4))
    t = MatrixTile(6, 4, b.copy())
    trsm(MatrixTile(4, 4, l), t)
    assert np.allclose(t.data @ l.T, b)


def test_syrk_kernel():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4))
    c = rng.standard_normal((4, 4))
    t = MatrixTile(4, 4, c.copy())
    syrk(MatrixTile(4, 4, a), t)
    assert np.allclose(t.data, c - a @ a.T)


def test_gemm_kernel():
    rng = np.random.default_rng(5)
    a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
    t = MatrixTile(4, 4, c.copy())
    gemm(MatrixTile(4, 4, a), MatrixTile(4, 4, b), t)
    assert np.allclose(t.data, c - a @ b.T)


def test_gemm_accumulate_rectangular():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((5, 2))
    c = rng.standard_normal((3, 2))
    t = MatrixTile(3, 2, c.copy())
    gemm_accumulate(MatrixTile(3, 5, a), MatrixTile(5, 2, b), t)
    assert np.allclose(t.data, c + a @ b)


def test_fw_kernel_minplus():
    rng = np.random.default_rng(7)
    wik = rng.uniform(0, 10, (3, 3))
    wkj = rng.uniform(0, 10, (3, 3))
    wij = rng.uniform(0, 10, (3, 3))
    t = MatrixTile(3, 3, wij.copy())
    fw_kernel(MatrixTile(3, 3, wik), MatrixTile(3, 3, wkj), t)
    expect = np.minimum(wij, np.min(wik[:, :, None] + wkj[None, :, :], axis=1))
    assert np.allclose(t.data, expect)


def test_fw_closure_matches_reference():
    from repro.apps.floydwarshall import fw_reference

    w = random_weight_matrix(8, seed=8)
    t = MatrixTile(8, 8, w.copy())
    fw_closure(t)
    assert np.allclose(t.data, fw_reference(w))


def test_kernels_noop_on_synthetic():
    s = MatrixTile.synthetic(4, 4)
    potrf(s)
    trsm(s, s)
    syrk(s, s)
    gemm(s, s, s)
    fw_kernel(s, s, s)
    fw_closure(s)
    assert s.is_synthetic


def test_flop_counts():
    assert potrf_flops(8) == pytest.approx(8**3 / 3)
    assert trsm_flops(8) == 512
    assert syrk_flops(8) == 512
    assert gemm_flops(2, 3, 4) == 48
    assert fw_flops(8) == 1024
    assert cholesky_total_flops(100) == pytest.approx(1e6 / 3)
    assert fw_total_flops(100) == 2e6


def test_kernel_efficiency_model():
    assert kernel_efficiency(48) == pytest.approx(0.5)
    assert kernel_efficiency(512) > 0.9
    assert effective_flops(100.0, 48) == pytest.approx(200.0)
    # efficiency is monotone in blocking
    effs = [kernel_efficiency(b) for b in (16, 32, 64, 128, 256)]
    assert effs == sorted(effs)


# ----------------------------------------------------------------- tilings


def test_irregular_tiling_offsets():
    t = IrregularTiling([3, 5, 2])
    assert t.n == 10 and t.nblocks == 3
    assert t.block_range(1) == (3, 8)


def test_irregular_tiling_validation():
    with pytest.raises(ValueError):
        IrregularTiling([])
    with pytest.raises(ValueError):
        IrregularTiling([2, 0])


def test_group_to_target():
    t = IrregularTiling.group_to_target([4, 4, 4, 4, 4], target=10)
    assert t.sizes == [8, 8, 4]
    with pytest.raises(ValueError):
        IrregularTiling.group_to_target([20], target=10)


def test_blocksparse_roundtrip_and_occupancy():
    rt = IrregularTiling([2, 3])
    a = np.zeros((5, 5))
    a[0:2, 0:2] = 1.0
    m = BlockSparseMatrix.from_dense(a, rt, rt)
    assert (0, 0) in m
    assert m.occupancy() == pytest.approx(0.25)
    assert np.array_equal(m.to_dense(), a)
    assert m.nnz_elements() == 4
    assert m.stored_bytes() == 32


def test_blocksparse_prune():
    rt = IrregularTiling([2, 2])
    m = BlockSparseMatrix(rt, rt)
    m.set_block(0, 0, MatrixTile(2, 2, np.full((2, 2), 1.0)))
    m.set_block(1, 1, MatrixTile(2, 2, np.full((2, 2), 1e-12)))
    pruned = m.prune(1e-8)
    assert (0, 0) in pruned and (1, 1) not in pruned


def test_blocksparse_shape_validation():
    rt = IrregularTiling([2, 3])
    m = BlockSparseMatrix(rt, rt)
    with pytest.raises(ValueError):
        m.set_block(0, 0, MatrixTile.zeros(3, 3))


# --------------------------------------------------------------- generators


def test_spd_matrix_is_spd():
    a = spd_matrix(16, seed=0)
    assert np.allclose(a, a.T)
    assert np.all(np.linalg.eigvalsh(a) > 0)


def test_random_weight_matrix_properties():
    w = random_weight_matrix(10, seed=0)
    assert np.all(np.diag(w) == 0)
    assert np.all(w >= 0)
    assert np.array_equal(w, random_weight_matrix(10, seed=0))


def test_yukawa_structure():
    m = yukawa_blocksparse(60, target_tile=32, seed=0)
    nr, nc = m.nblocks
    assert nr == nc
    assert all(s <= 32 for s in m.row_tiling.sizes)
    # diagonal blocks present (self-interaction is strongest)
    assert all((i, i) in m for i in range(nr))
    # symmetric sparsity pattern (distances are symmetric)
    for (i, j) in m.block_keys():
        assert (j, i) in m


def test_yukawa_sparsity_grows_with_system():
    small = yukawa_blocksparse(30, target_tile=32, decay_length=2.0, seed=1)
    big = yukawa_blocksparse(300, target_tile=32, decay_length=2.0, seed=1)
    assert big.occupancy() < small.occupancy()


def test_yukawa_synthetic_mode():
    m = yukawa_blocksparse(20, target_tile=32, seed=2, synthetic=True)
    for _, t in m.blocks():
        assert t.is_synthetic
