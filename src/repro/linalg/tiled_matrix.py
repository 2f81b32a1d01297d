"""TiledMatrix: a square matrix cut into b x b tiles, block-cyclically
distributed over a 2-D process grid (the distribution used by the dense
Cholesky and FW-APSP applications, and by ScaLAPACK itself).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.linalg.tile import MatrixTile


def grid_dims(nranks: int) -> Tuple[int, int]:
    """Nearly-square process grid P x Q = nranks with P <= Q."""
    p = int(math.isqrt(nranks))
    while nranks % p != 0:
        p -= 1
    return p, nranks // p


class BlockCyclicDistribution:
    """2-D block-cyclic tile-to-rank map: rank(i, j) = (i%P)*Q + j%Q."""

    def __init__(self, prows: int, pcols: int) -> None:
        if prows < 1 or pcols < 1:
            raise ValueError("process grid dims must be >= 1")
        self.prows = prows
        self.pcols = pcols

    @classmethod
    def for_ranks(cls, nranks: int) -> "BlockCyclicDistribution":
        return cls(*grid_dims(nranks))

    @property
    def nranks(self) -> int:
        return self.prows * self.pcols

    def rank_of(self, i: int, j: int) -> int:
        return (i % self.prows) * self.pcols + (j % self.pcols)

    def tiles_of_rank(self, rank: int, nt: int) -> Iterator[Tuple[int, int]]:
        """All (i, j) in an nt x nt tiling owned by ``rank``."""
        pr, pc = divmod(rank, self.pcols)
        for i in range(pr, nt, self.prows):
            for j in range(pc, nt, self.pcols):
                yield (i, j)


class TiledMatrix:
    """n x n matrix in b x b tiles (last row/col of tiles may be smaller).

    Tiles are stored in a dict keyed by (tile-row, tile-col); in synthetic
    mode the dict stays empty and ``tile_at`` fabricates cost-only tiles.
    """

    def __init__(
        self,
        n: int,
        b: int,
        dist: Optional[BlockCyclicDistribution] = None,
        synthetic: bool = False,
    ) -> None:
        if n < 1 or b < 1:
            raise ValueError("matrix and tile sizes must be >= 1")
        self.n = n
        self.b = b
        self.nt = (n + b - 1) // b
        self.dist = dist or BlockCyclicDistribution(1, 1)
        #: ``rank_of(i, j)``: owner rank of tile (i, j).  The distribution's
        #: own map, not a forwarding method: key maps call it per message.
        self.rank_of = self.dist.rank_of
        self.synthetic = synthetic
        self._tiles: Dict[Tuple[int, int], MatrixTile] = {}

    # ------------------------------------------------------------ geometry

    def tile_rows(self, i: int) -> int:
        """Row count of tiles in tile-row i (last row may be ragged)."""
        if not (0 <= i < self.nt):
            raise IndexError(f"tile row {i} out of range [0, {self.nt})")
        return min(self.b, self.n - i * self.b)

    def tile_cols(self, j: int) -> int:
        if not (0 <= j < self.nt):
            raise IndexError(f"tile col {j} out of range [0, {self.nt})")
        return min(self.b, self.n - j * self.b)

    # -------------------------------------------------------------- access

    def tile_at(self, i: int, j: int) -> MatrixTile:
        """The tile at (i, j); synthetic matrices fabricate one on the fly."""
        t = self._tiles.get((i, j))
        if t is None:
            if not self.synthetic:
                raise KeyError(f"tile ({i}, {j}) not set")
            t = MatrixTile.synthetic(self.tile_rows(i), self.tile_cols(j))
            self._tiles[(i, j)] = t
        return t

    def set_tile(self, i: int, j: int, tile: MatrixTile) -> None:
        expect = (self.tile_rows(i), self.tile_cols(j))
        if tile.shape != expect:
            raise ValueError(f"tile ({i},{j}) shape {tile.shape} != {expect}")
        self._tiles[(i, j)] = tile

    def has_tile(self, i: int, j: int) -> bool:
        return (i, j) in self._tiles or self.synthetic

    def tiles(self) -> Iterator[Tuple[Tuple[int, int], MatrixTile]]:
        return iter(self._tiles.items())

    # ---------------------------------------------------------- conversion

    @classmethod
    def from_dense(
        cls,
        a: np.ndarray,
        b: int,
        dist: Optional[BlockCyclicDistribution] = None,
        lower_only: bool = False,
    ) -> "TiledMatrix":
        """Cut a dense square array into tiles.

        ``lower_only`` stores just the lower triangle plus diagonal (what
        Cholesky reads); upper tiles are simply absent.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected square matrix, got {a.shape}")
        m = cls(a.shape[0], b, dist)
        for i in range(m.nt):
            for j in range(m.nt):
                if lower_only and j > i:
                    continue
                block = a[
                    i * b : i * b + m.tile_rows(i), j * b : j * b + m.tile_cols(j)
                ]
                m.set_tile(i, j, MatrixTile(*block.shape, block.copy()))
        return m

    def to_dense(self, fill: float = 0.0) -> np.ndarray:
        """Assemble a dense array (absent tiles become ``fill``)."""
        out = np.full((self.n, self.n), fill)
        for (i, j), t in self._tiles.items():
            if t.data is not None:
                out[
                    i * self.b : i * self.b + t.rows,
                    j * self.b : j * self.b + t.cols,
                ] = t.data
        return out

    def __repr__(self) -> str:
        kind = "synthetic" if self.synthetic else f"{len(self._tiles)} tiles"
        return (
            f"TiledMatrix(n={self.n}, b={self.b}, nt={self.nt}, "
            f"grid={self.dist.prows}x{self.dist.pcols}, {kind})"
        )
