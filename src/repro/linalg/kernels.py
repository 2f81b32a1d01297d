"""Tile kernels with analytic flop counts.

Dense Cholesky kernels (POTRF/TRSM/SYRK/GEMM, Fig. 1) operate on the lower
triangle; the Floyd-Warshall kernel is the min-plus tile update shared by
the A/B/C/D variants of the tiled algorithm (Fig. 7).  Kernels mutate their
output tile in place when tiles carry real data and are no-ops on synthetic
tiles (costs are charged by the cost model either way).
"""

from __future__ import annotations

import numpy as np

from repro.linalg.tile import MatrixTile


class KernelError(RuntimeError):
    """Numerical failure inside a tile kernel (e.g. non-SPD POTRF input)."""


# ----------------------------------------------------------------- kernels


def potrf(akk: MatrixTile) -> MatrixTile:
    """Cholesky-factor a diagonal tile in place: A_kk -> L_kk (lower)."""
    if akk.data is not None:
        try:
            akk.data = np.linalg.cholesky(akk.data)
        except np.linalg.LinAlgError as e:
            raise KernelError(f"POTRF failed: {e}") from e
    return akk


def trsm(lkk: MatrixTile, amk: MatrixTile) -> MatrixTile:
    """Triangular solve in place: A_mk -> A_mk * L_kk^{-T}."""
    if lkk.data is not None and amk.data is not None:
        # SciPy is imported where it is used: the import costs a process
        # ~300 modules and ~21 MiB of peak RSS, and only real-data TRSM
        # tiles need it.
        import scipy.linalg

        # Solve X L^T = A  =>  L X^T = A^T
        amk.data = scipy.linalg.solve_triangular(
            lkk.data, amk.data.T, lower=True
        ).T
    return amk


def syrk(amk: MatrixTile, amm: MatrixTile) -> MatrixTile:
    """Symmetric rank-k update in place: A_mm -= A_mk @ A_mk^T."""
    if amk.data is not None and amm.data is not None:
        amm.data = amm.data - amk.data @ amk.data.T
    return amm


def gemm(amk: MatrixTile, ank: MatrixTile, amn: MatrixTile) -> MatrixTile:
    """General update in place: A_mn -= A_mk @ A_nk^T."""
    if amk.data is not None and ank.data is not None and amn.data is not None:
        amn.data = amn.data - amk.data @ ank.data.T
    return amn


def fw_kernel(wik: MatrixTile, wkj: MatrixTile, wij: MatrixTile) -> MatrixTile:
    """Min-plus tile update: W_ij = min(W_ij, min_k(W_ik + W_kj)).

    This single kernel implements all four variants (A: i=j=k, B: i=k,
    C: j=k, D: general) of the tiled Floyd-Warshall algorithm; the variants
    differ only in which tiles alias, which the caller handles.
    """
    if wik.data is not None and wkj.data is not None and wij.data is not None:
        # (b, b, 1) + (1, b, b) -> min over the middle axis.
        cand = np.min(wik.data[:, :, None] + wkj.data[None, :, :], axis=1)
        np.minimum(wij.data, cand, out=wij.data)
    return wij


def fw_closure(wkk: MatrixTile) -> MatrixTile:
    """In-tile Floyd-Warshall closure (kernel A of the tiled algorithm).

    The diagonal tile must be fully closed (all within-tile multi-hop
    paths), after which B/C/D need only a single min-plus product each.
    """
    if wkk.data is not None:
        d = wkk.data
        for k in range(d.shape[0]):
            np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return wkk


def gemm_accumulate(a: MatrixTile, b: MatrixTile, c: MatrixTile) -> MatrixTile:
    """C += A @ B (block-sparse multiply-add; shapes may be rectangular)."""
    if a.data is not None and b.data is not None and c.data is not None:
        c.data = c.data + a.data @ b.data
    return c


# ------------------------------------------------------------- flop counts


def kernel_efficiency(b: float, b_half: float = 48.0) -> float:
    """Fraction of peak a BLAS-3 kernel sustains at blocking size ``b``.

    Small kernels are bound by loop overhead and loads: the standard
    half-performance model ``eff = b / (b + b_half)`` (Hockney's n_1/2)
    gives ~0.57 at b=64 and ~0.91 at b=512.  Applied uniformly to the TTG
    applications and every baseline (each with *its own* internal blocking)
    so that implementation granularity differences -- e.g. ScaLAPACK's
    nb=64 panels vs 512^2 tiles -- are charged honestly.
    """
    return b / (b + b_half)


def effective_flops(flops: float, b: float) -> float:
    """Flop count inflated by the kernel-efficiency model (what the cost
    model charges so that time = flops / (eff * rate))."""
    return flops / kernel_efficiency(b)


def potrf_flops(b: int) -> float:
    """Cholesky of a b x b tile: b^3/3 + O(b^2)."""
    return b**3 / 3.0


def trsm_flops(b: int) -> float:
    """Triangular solve with b x b triangle and b x b rhs: b^3."""
    return float(b**3)


def syrk_flops(b: int) -> float:
    """Rank-b symmetric update of a b x b tile: b^3 (symmetry halves it)."""
    return float(b**3)


def gemm_flops(m: int, n: int, k: int) -> float:
    """General multiply-accumulate (m x k)(k x n): 2mnk."""
    return 2.0 * m * n * k


def fw_flops(b: int) -> float:
    """Min-plus product of b x b tiles: one add + one compare per entry."""
    return 2.0 * b**3


def cholesky_total_flops(n: int) -> float:
    """Whole-matrix Cholesky: n^3/3 (the figure-of-merit denominator)."""
    return n**3 / 3.0


def fw_total_flops(n: int) -> float:
    """Whole-matrix Floyd-Warshall: 2 n^3 (add + min per (i,j,k))."""
    return 2.0 * n**3
