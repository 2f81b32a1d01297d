"""MatrixTile: the unit of data flowing through the linear-algebra TTGs.

A tile either carries a real numpy array (*execute* mode: results are
verifiable) or only its nominal shape (*synthetic* mode: large-scale sweeps
charge identical costs without doing the math).  Tiles implement the
intrusive split-metadata interface of Fig. 4: metadata = (rows, cols,
has-data flag), payload = the contiguous array.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np


class MatrixTile:
    """A dense (rows x cols) tile of float64 data.

    Parameters
    ----------
    rows, cols:
        Tile dimensions (nominal when ``data`` is None).
    data:
        Real contents, or None for synthetic cost-only tiles.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[np.ndarray] = None) -> None:
        if rows < 1 or cols < 1:
            raise ValueError(f"invalid tile shape {rows}x{cols}")
        if data is not None:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (rows, cols):
                raise ValueError(f"data shape {data.shape} != ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        self.data = data

    # ------------------------------------------------------------- basics

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MatrixTile":
        return cls(rows, cols, np.zeros((rows, cols)))

    @classmethod
    def synthetic(cls, rows: int, cols: int) -> "MatrixTile":
        """A cost-model-only tile carrying no array."""
        return cls(rows, cols, None)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nbytes(self) -> int:
        """Nominal wire/memory footprint (independent of synthetic-ness)."""
        return self.rows * self.cols * 8

    @property
    def is_synthetic(self) -> bool:
        return self.data is None

    def clone(self) -> "MatrixTile":
        """Deep copy (used by value-mode sends)."""
        return MatrixTile(
            self.rows, self.cols, None if self.data is None else self.data.copy()
        )

    def norm(self) -> float:
        """Frobenius norm (0 for synthetic tiles)."""
        return 0.0 if self.data is None else float(np.linalg.norm(self.data))

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, MatrixTile):
            return NotImplemented
        if self.shape != other.shape:
            return False
        if self.data is None or other.data is None:
            return self.data is None and other.data is None
        return bool(np.array_equal(self.data, other.data))

    def allclose(self, other: "MatrixTile", rtol: float = 1e-10) -> bool:
        if self.shape != other.shape or (self.data is None) != (other.data is None):
            return False
        if self.data is None:
            return True
        return bool(np.allclose(self.data, other.data, rtol=rtol))

    def __repr__(self) -> str:
        kind = "synthetic" if self.is_synthetic else "dense"
        return f"MatrixTile({self.rows}x{self.cols}, {kind})"

    # ------------------------------------------------- splitmd (Fig. 4)

    def splitmd_metadata(self) -> Tuple[int, int, bool]:
        return (self.rows, self.cols, self.data is not None)

    def splitmd_payload(self) -> Optional[np.ndarray]:
        if self.data is None:
            return None
        return np.ascontiguousarray(self.data)

    @classmethod
    def splitmd_allocate(cls, metadata: Tuple[int, int, bool]) -> "MatrixTile":
        rows, cols, has_data = metadata
        tile = cls(rows, cols, None)
        if has_data:
            # allocated-but-uninitialized is a valid state for splitmd types
            tile.data = np.empty((rows, cols))
        return tile

    def splitmd_fill(self, payload: np.ndarray) -> None:
        self.data = np.asarray(payload, dtype=np.float64).reshape(self.rows, self.cols)
