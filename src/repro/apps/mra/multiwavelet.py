"""Alpert-style multiwavelet machinery on the unit cube.

Scaling basis of order k on [0, 1]: ``phi_j(x) = sqrt(2j+1) P_j(2x - 1)``
(shifted, normalized Legendre polynomials), orthonormal in L2([0, 1]).
The two-scale relation couples a box's basis to its two half-boxes::

    phi_i(x) = sqrt(2) * sum_j [ h0[i,j] phi_j(2x)   (x in [0, 1/2])
                               + h1[i,j] phi_j(2x-1) (x in [1/2, 1]) ]

``H = [h0 h1]`` has orthonormal rows; the wavelet filters ``G = [g0 g1]``
are an orthonormal basis of its complement (computed via the null space;
any such choice yields an exact, orthogonal fast wavelet transform --
Alpert's specific moment-vanishing choice is not needed for compress /
reconstruct / norm).  d-dimensional transforms are separable: the 2k x 2k
orthogonal filter ``W = [[h0, h1], [g0, g1]]`` is applied along each axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from operator import add
from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

Box = Tuple[int, Tuple[int, ...]]  # (level, index-tuple), unit-cube dyadic


def legendre_scaling_values(k: int, x: np.ndarray) -> np.ndarray:
    """phi_j(x) for j < k at points x in [0, 1]; shape (k, len(x))."""
    x = np.asarray(x, dtype=np.float64)
    t = 2.0 * x - 1.0
    out = np.empty((k, x.size))
    for j in range(k):
        cj = np.zeros(j + 1)
        cj[j] = 1.0
        out[j] = math.sqrt(2 * j + 1) * np.polynomial.legendre.legval(t, cj)
    return out


class Multiwavelet:
    """Order-k multiwavelet transform tables for d dimensions."""

    def __init__(self, k: int, d: int) -> None:
        if k < 1:
            raise ValueError("order k must be >= 1")
        if d < 1:
            raise ValueError("dimension d must be >= 1")
        self.k = k
        self.d = d
        # Gauss-Legendre quadrature on [0, 1], exact to degree 2k-1.
        pts, wts = np.polynomial.legendre.leggauss(k)
        self.pts = 0.5 * (pts + 1.0)
        self.wts = 0.5 * wts
        phi = legendre_scaling_values(k, self.pts)  # (k, k): phi_j(x_p)
        self.phi_at_pts = phi
        # Quadrature-projection matrix: B[j, p] = w_p * phi_j(x_p).
        self.quad_b = phi * self.wts[None, :]
        # Two-scale filters by quadrature (degree <= 2k-2: exact).
        lo = legendre_scaling_values(k, self.pts / 2.0)
        hi = legendre_scaling_values(k, (self.pts + 1.0) / 2.0)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        self.h0 = inv_sqrt2 * (lo * self.wts[None, :]) @ phi.T
        self.h1 = inv_sqrt2 * (hi * self.wts[None, :]) @ phi.T
        h = np.hstack([self.h0, self.h1])  # (k, 2k), orthonormal rows
        # Imported here, the one use: processes that never build a
        # Multiwavelet do not pay SciPy's import (~0.3 s, ~30 MiB).
        import scipy.linalg

        g = scipy.linalg.null_space(h).T  # (k, 2k), orthonormal complement
        self.g0 = g[:, :k]
        self.g1 = g[:, k:]
        # Full 2k x 2k orthogonal filter.
        self.filter_matrix = np.vstack([h, g])
        # Child bit patterns, ordered by child index c: bit t of child c is
        # (c >> (d-1-t)) & 1, i.e. the rows of the binary counter.
        self._child_bits = tuple(product((0, 1), repeat=d))
        nchild = 2**d
        # Batched child quadrature: the flattened tensor grid of the points,
        # shaped (d, 1, k^d), against the bit table shaped (d, 2^d, 1).
        grids = np.meshgrid(*([self.pts] * d), indexing="ij")
        self._grid = np.stack(grids).reshape(d, 1, -1)
        self._bits = np.array(self._child_bits).T.reshape(d, nchild, 1)
        self._child_shape = (k,) * d
        self._batch_shape = (nchild,) + self._child_shape
        # assemble/split: a (2k,)*d tensor viewed as (bit, coefficient) per
        # axis, transposed so the d child bits lead the d coefficient axes.
        self._big_shape = (2 * k,) * d
        self._bit_coeff_shape = (2, k) * d
        self._bits_first = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
        self._bits_first_shape = (2,) * d + self._child_shape
        # _apply_axes: rotate the first tensor axis behind the others,
        # keeping a leading batch axis in place.
        self._rotate = (0,) + tuple(range(2, d + 1)) + (1,)

    # ------------------------------------------------------------ helpers

    def children(self, box: Box) -> List[Box]:
        """The 2^d dyadic children of a box, ordered by child bit-pattern."""
        n, l = box
        if len(l) != self.d:
            raise ValueError(f"box index {l} is not {self.d}-dimensional")
        n += 1
        base = [2 * i for i in l]
        return [(n, tuple(map(add, base, bits))) for bits in self._child_bits]

    @staticmethod
    def parent(box: Box) -> Box:
        n, l = box
        if n == 0:
            raise ValueError("root has no parent")
        return (n - 1, tuple(i // 2 for i in l))

    @staticmethod
    def child_index(box: Box) -> int:
        """Which of its parent's children this box is (bit pattern)."""
        n, l = box
        idx = 0
        for i in l:
            idx = (idx << 1) | (i & 1)
        return idx

    def _apply_axes(self, tensor: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """Contract ``mat`` (out, in) with each of the last d axes of
        ``tensor``; any leading axes are a batch."""
        nout, nin = mat.shape
        shape = tensor.shape[-self.d:]
        if shape != (nin,) * self.d:
            raise ValueError(
                f"tensor axes {shape} do not match a {nout}x{nin} matrix "
                f"in {self.d} dimensions"
            )
        out = tensor.reshape((-1,) + shape)
        mat_t = mat.T
        for _ in range(self.d):
            # Contract the leading (original) axis; the fresh output axis
            # lands last, so after d rounds the axis order is restored and
            # every original axis was contracted exactly once.  This is
            # what np.tensordot(out, mat, axes=([0], [1])) does, minus its
            # per-call Python prologue.
            shape = shape[1:] + (nout,)
            out = np.dot(
                out.transpose(self._rotate).reshape(-1, nin), mat_t
            ).reshape((-1,) + shape)
        return out.reshape(tensor.shape[: -self.d] + shape)

    # --------------------------------------------------------- projection

    def project_box(self, f: Callable[[np.ndarray], np.ndarray], box: Box) -> np.ndarray:
        """Scaling coefficients of ``f`` on ``box``: tensor of shape (k,)*d.

        ``f`` takes points of shape (d, N) and returns values of shape (N,).
        """
        n, l = box
        scale = 2.0**-n
        grids = np.meshgrid(*([self.pts] * self.d), indexing="ij")
        coords = np.stack(
            [(g + l[t]) * scale for t, g in enumerate(grids)]
        )  # (d, k, ..., k)
        fvals = f(coords.reshape(self.d, -1)).reshape((self.k,) * self.d)
        s = self._apply_axes(fvals, self.quad_b)
        return s * 2.0 ** (-n * self.d / 2.0)

    def project_children(
        self, f: Callable[[np.ndarray], np.ndarray], box: Box
    ) -> np.ndarray:
        """Scaling coefficients of ``f`` on all 2^d children of ``box`` in
        one pass: shape (2^d, k, ..., k), child ``c`` of :meth:`children`
        at index ``c``.

        Equals ``project_box`` on each child: the points are formed by the
        same ``(pts + index) * scale``, ``f`` sees them all at once as
        (d, 2^d * k^d), and the quadrature matrix is contracted over the
        leading batch axis.
        """
        n, l = box
        if len(l) != self.d:
            raise ValueError(f"box index {l} is not {self.d}-dimensional")
        n += 1
        index = self._bits + 2 * np.array(l).reshape(self.d, 1, 1)
        coords = (self._grid + index) * 2.0**-n  # (d, 2^d, k^d)
        fvals = f(coords.reshape(self.d, -1)).reshape(self._batch_shape)
        s = self._apply_axes(fvals, self.quad_b)
        return s * 2.0 ** (-n * self.d / 2.0)

    def eval_from_coeffs(
        self, s: np.ndarray, box: Box, x: np.ndarray
    ) -> np.ndarray:
        """Evaluate sum_j s_j phi^n_jl(x) at points x of shape (d, N)."""
        n, l = box
        y = np.asarray(x, dtype=np.float64) * 2.0**n - np.asarray(l)[:, None]
        if np.any(y < -1e-12) or np.any(y > 1 + 1e-12):
            raise ValueError("points outside box")
        # One contraction per point: every operand but ``s`` carries the
        # point axis (label d), so no (N,)*d intermediate is ever built.
        operands: List[Any] = [s, list(range(self.d))]
        for t in range(self.d):
            phis = legendre_scaling_values(self.k, np.clip(y[t], 0.0, 1.0))
            operands += [phis, [t, self.d]]
        vals = np.einsum(*operands, [self.d])
        return vals * 2.0 ** (n * self.d / 2.0)

    # ----------------------------------------------------------- transform

    def assemble_children(self, child_tensors: Sequence[np.ndarray]) -> np.ndarray:
        """Pack 2^d child coefficient tensors into one (2k,)*d tensor."""
        if len(child_tensors) != 2**self.d:
            raise ValueError(f"need {2**self.d} children, got {len(child_tensors)}")
        for c, s in enumerate(child_tensors):
            if s.shape != self._child_shape:
                raise ValueError(f"child {c} has shape {s.shape}")
        # Child c fills the block its bits (bit_0, ..., bit_{d-1}) name.
        big = np.empty(self._big_shape)
        big.reshape(self._bit_coeff_shape).transpose(self._bits_first)[...] = (
            np.asarray(child_tensors).reshape(self._bits_first_shape)
        )
        return big

    def split_children(self, big: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`assemble_children`: shape (2^d, k, ..., k),
        child ``c`` at index ``c`` (a fresh array, not a view of ``big``)."""
        out = np.empty(self._batch_shape)
        out.reshape(self._bits_first_shape)[...] = big.reshape(
            self._bit_coeff_shape
        ).transpose(self._bits_first)
        return out

    def filter(self, child_tensors: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """Fast wavelet transform step: children s -> (parent s, d).

        ``d`` is the full (2k,)*d tensor with the scaling corner zeroed
        conceptually -- returned as the transformed tensor; the parent s is
        its [0:k)^d corner.
        """
        big = self.assemble_children(child_tensors)
        sd = self._apply_axes(big, self.filter_matrix)
        s = sd[(slice(0, self.k),) * self.d].copy()
        return s, sd

    def wavelet_norm2(self, sd: np.ndarray) -> float:
        """Squared norm of the wavelet (non-scaling) part of a filtered
        tensor (total minus the scaling corner)."""
        corner = sd[(slice(0, self.k),) * self.d]
        return float(np.sum(sd * sd) - np.sum(corner * corner))

    def unfilter(self, sd: np.ndarray) -> np.ndarray:
        """Inverse transform: filtered (2k,)*d tensor -> 2^d children s,
        stacked along a leading child axis."""
        big = self._apply_axes(sd, self.filter_matrix.T)
        return self.split_children(big)

    def set_scaling_corner(self, sd: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Return a copy of ``sd`` with its scaling corner replaced by s."""
        out = sd.copy()
        out[(slice(0, self.k),) * self.d] = s
        return out

    # ------------------------------------------------------------- costs

    def project_flops(self) -> float:
        """Approximate flops of projecting one box (2^d child quadratures
        + one filter): function evals + separable contractions."""
        k, d = self.k, self.d
        evals = (2**d) * (k**d) * (5 * d + 25)  # exp + distance per point
        contract = (2**d) * 2 * d * k ** (d + 1)
        return evals + contract + self.filter_flops()

    def filter_flops(self) -> float:
        k, d = self.k, self.d
        return 2.0 * d * (2 * k) ** (d + 1)


@dataclass(frozen=True)
class Gaussian:
    """coefficient * exp(-exponent * |x - center|^2) on the unit cube."""

    center: Tuple[float, ...]
    exponent: float
    coefficient: float = 1.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)[:, None]
        r2 = np.sum((np.asarray(x) - c) ** 2, axis=0)
        return self.coefficient * np.exp(-self.exponent * r2)

    @property
    def d(self) -> int:
        return len(self.center)

    def norm2_analytic(self) -> float:
        """L2 norm squared over R^d (cube truncation negligible for sharp
        Gaussians centered away from the boundary)."""
        return self.coefficient**2 * (math.pi / (2 * self.exponent)) ** (self.d / 2)


@dataclass
class GaussianSum:
    """A sum of Gaussians with an analytic pairwise-overlap norm."""

    terms: List[Gaussian] = field(default_factory=list)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape[1])
        for g in self.terms:
            out += g(x)
        return out

    @property
    def d(self) -> int:
        return self.terms[0].d

    def norm2_analytic(self) -> float:
        """||sum_i g_i||^2 via Gaussian product overlap integrals."""
        total = 0.0
        for gi in self.terms:
            for gj in self.terms:
                a, b = gi.exponent, gj.exponent
                ci = np.asarray(gi.center)
                cj = np.asarray(gj.center)
                r2 = float(np.sum((ci - cj) ** 2))
                pref = gi.coefficient * gj.coefficient
                total += (
                    pref
                    * math.exp(-a * b * r2 / (a + b))
                    * (math.pi / (a + b)) ** (gi.d / 2)
                )
        return total
