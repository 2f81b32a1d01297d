"""Block-sparse matrices with irregular tile sizes (paper III-D).

The bspmm workload tiles a matrix into blocks of *irregular* dimensions
(rows/columns grouped per atom, capped at a target tile size) and discards
tiles whose Frobenius norm falls below a threshold.  :class:`IrregularTiling`
captures the grouping; :class:`BlockSparseMatrix` stores the surviving
blocks.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.linalg.tile import MatrixTile


class IrregularTiling:
    """A partition of [0, n) into contiguous blocks of irregular sizes."""

    def __init__(self, sizes: Iterable[int]) -> None:
        self.sizes: List[int] = [int(s) for s in sizes]
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("tiling needs at least one positive block size")
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])

    @property
    def nblocks(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        """Total dimension covered."""
        return int(self.offsets[-1])

    def block_range(self, i: int) -> Tuple[int, int]:
        return int(self.offsets[i]), int(self.offsets[i + 1])

    @classmethod
    def group_to_target(cls, unit_sizes: Iterable[int], target: int) -> "IrregularTiling":
        """Group consecutive unit blocks (per-atom panels) into tiles whose
        size does not exceed ``target`` (paper: tiles of <= 256)."""
        out: List[int] = []
        cur = 0
        for s in unit_sizes:
            s = int(s)
            if s > target:
                raise ValueError(f"unit block {s} exceeds target tile size {target}")
            if cur + s > target and cur > 0:
                out.append(cur)
                cur = 0
            cur += s
        if cur > 0:
            out.append(cur)
        return cls(out)


class BlockSparseMatrix:
    """Sparse collection of dense blocks over (row_tiling x col_tiling)."""

    def __init__(self, row_tiling: IrregularTiling, col_tiling: IrregularTiling) -> None:
        self.row_tiling = row_tiling
        self.col_tiling = col_tiling
        self._blocks: Dict[Tuple[int, int], MatrixTile] = {}

    # -------------------------------------------------------------- access

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.row_tiling.n, self.col_tiling.n)

    @property
    def nblocks(self) -> Tuple[int, int]:
        return (self.row_tiling.nblocks, self.col_tiling.nblocks)

    def set_block(self, i: int, j: int, tile: MatrixTile) -> None:
        expect = (self.row_tiling.sizes[i], self.col_tiling.sizes[j])
        if tile.shape != expect:
            raise ValueError(f"block ({i},{j}) shape {tile.shape} != {expect}")
        self._blocks[(i, j)] = tile

    def block(self, i: int, j: int) -> Optional[MatrixTile]:
        return self._blocks.get((i, j))

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._blocks

    def blocks(self) -> Iterator[Tuple[Tuple[int, int], MatrixTile]]:
        return iter(self._blocks.items())

    def block_keys(self) -> List[Tuple[int, int]]:
        return sorted(self._blocks)

    # ------------------------------------------------------------ analysis

    def occupancy(self) -> float:
        """Fraction of blocks present."""
        total = self.row_tiling.nblocks * self.col_tiling.nblocks
        return len(self._blocks) / total if total else 0.0

    def stored_bytes(self) -> int:
        return sum(t.nbytes for t in self._blocks.values())

    def nnz_elements(self) -> int:
        return sum(t.rows * t.cols for t in self._blocks.values())

    def prune(self, threshold: float) -> "BlockSparseMatrix":
        """Drop blocks whose *per-element* Frobenius norm is below the
        threshold (paper III-D: 1e-8)."""
        out = BlockSparseMatrix(self.row_tiling, self.col_tiling)
        for (i, j), t in self._blocks.items():
            if t.data is None:
                out._blocks[(i, j)] = t
                continue
            per_elem = np.linalg.norm(t.data) / np.sqrt(t.rows * t.cols)
            if per_elem >= threshold:
                out._blocks[(i, j)] = t
        return out

    # ---------------------------------------------------------- conversion

    @classmethod
    def from_dense(
        cls,
        a: np.ndarray,
        row_tiling: IrregularTiling,
        col_tiling: IrregularTiling,
        threshold: float = 0.0,
    ) -> "BlockSparseMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (row_tiling.n, col_tiling.n):
            raise ValueError(f"shape {a.shape} != tilings {(row_tiling.n, col_tiling.n)}")
        m = cls(row_tiling, col_tiling)
        for i in range(row_tiling.nblocks):
            r0, r1 = row_tiling.block_range(i)
            for j in range(col_tiling.nblocks):
                c0, c1 = col_tiling.block_range(j)
                block = a[r0:r1, c0:c1]
                per_elem = np.linalg.norm(block) / np.sqrt(block.size)
                if per_elem >= threshold and np.any(block):
                    m.set_block(i, j, MatrixTile(*block.shape, block.copy()))
        return m

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for (i, j), t in self._blocks.items():
            if t.data is None:
                continue
            r0, r1 = self.row_tiling.block_range(i)
            c0, c1 = self.col_tiling.block_range(j)
            out[r0:r1, c0:c1] = t.data
        return out

    def spy(self, width: int = 64) -> str:
        """ASCII sparsity-pattern rendering (the paper's Fig. 11): one
        character cell per group of blocks, '#' dense ... ' ' empty."""
        nr, nc = self.nblocks
        w = min(width, nc)
        h = max(1, round(nr * w / max(nc, 1)))
        counts = [[0] * w for _ in range(h)]
        totals = [[0] * w for _ in range(h)]
        for i in range(nr):
            r = min(h - 1, i * h // nr)
            for j in range(nc):
                c = min(w - 1, j * w // nc)
                totals[r][c] += 1
                if (i, j) in self._blocks:
                    counts[r][c] += 1
        shades = " .:+#"
        rows = []
        for r in range(h):
            row = []
            for c in range(w):
                f = counts[r][c] / totals[r][c] if totals[r][c] else 0.0
                row.append(shades[min(len(shades) - 1, int(f * (len(shades) - 1) + 0.999)) if f > 0 else 0])
            rows.append("|" + "".join(row) + "|")
        header = f"occupancy {self.occupancy():.2f} ({nr}x{nc} blocks)"
        return "\n".join([header] + rows)

    def __repr__(self) -> str:
        nr, nc = self.nblocks
        return (
            f"BlockSparseMatrix({self.shape[0]}x{self.shape[1]}, "
            f"{nr}x{nc} blocks, occupancy={self.occupancy():.3f})"
        )
