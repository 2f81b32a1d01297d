"""Sequential MRA reference: adaptive projection, compress, reconstruct.

This is the ground truth the TTG implementation (and the native-MADNESS
baseline's timing model) are validated against.  A function is represented
by a :class:`FunctionTree` -- scaling coefficients at the leaves of an
adaptive dyadic tree -- or by a :class:`CompressedTree` -- scaling
coefficients at the root plus wavelet (difference) coefficients at every
internal node.

Refinement rule (all-or-none per box): project the 2^d children of a box,
filter; if the wavelet norm is below the threshold (or the level cap is
hit) the children become leaves, otherwise every child is refined
recursively.  Distinct regions refine to different depths, producing the
irregular trees the paper's load-balance discussion is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.apps.mra.multiwavelet import Box, Multiwavelet


@dataclass
class FunctionTree:
    """Leaf (scaling-coefficient) representation of one function."""

    mw: Multiwavelet
    leaves: Dict[Box, np.ndarray] = field(default_factory=dict)

    def norm2(self) -> float:
        """||P f||^2 = sum of squared leaf coefficients (Parseval)."""
        return float(sum(np.sum(s * s) for s in self.leaves.values()))

    def depth(self) -> int:
        return max((box[0] for box in self.leaves), default=0)

    def internal_boxes(self) -> List[Box]:
        """All strict ancestors of leaves (the compress work list),
        deepest first."""
        seen = set()
        for box in self.leaves:
            n, l = box
            while n > 0:
                n, l = n - 1, tuple(i // 2 for i in l)
                seen.add((n, l))
        return sorted(seen, key=lambda b: -b[0])

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (d, N) by locating leaves."""
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape[1])
        for p in range(x.shape[1]):
            pt = x[:, p]
            box = self._leaf_containing(pt)
            out[p] = self.mw.eval_from_coeffs(
                self.leaves[box], box, pt[:, None]
            )[0]
        return out

    def _leaf_containing(self, pt: np.ndarray) -> Box:
        depth = self.depth()
        for n in range(depth + 1):
            idx = tuple(min(int(c * 2**n), 2**n - 1) for c in pt)
            if (n, idx) in self.leaves:
                return (n, idx)
        raise KeyError(f"no leaf contains point {pt}")

    def compress(self) -> "CompressedTree":
        """Bottom-up fast wavelet transform (the paper's compress step)."""
        mw = self.mw
        s_at: Dict[Box, np.ndarray] = dict(self.leaves)
        diffs: Dict[Box, np.ndarray] = {}
        for box in self.internal_boxes():  # deepest first
            kids = [s_at.pop(child) for child in mw.children(box)]
            s, sd = mw.filter(kids)
            s_at[box] = s
            diffs[box] = sd  # full filtered tensor; scaling corner = s
        root = (0, (0,) * mw.d)
        if set(s_at) != {root}:
            raise RuntimeError("compress did not reduce to the root")
        return CompressedTree(mw=mw, s0=s_at[root], diffs=diffs)


@dataclass
class CompressedTree:
    """Root scaling coefficients + wavelet coefficients per internal node.

    ``diffs[box]`` stores the full filtered (2k,)*d tensor whose scaling
    corner equals the box's own scaling coefficients; the *wavelet norm*
    excludes that corner.
    """

    mw: Multiwavelet
    s0: np.ndarray
    diffs: Dict[Box, np.ndarray] = field(default_factory=dict)

    def norm2(self) -> float:
        """||f||^2 = ||s0||^2 + sum of wavelet-coefficient norms."""
        total = float(np.sum(self.s0 * self.s0))
        for sd in self.diffs.values():
            total += self.mw.wavelet_norm2(sd)
        return total

    def scale(self, alpha: float) -> "CompressedTree":
        """alpha * f: the transform is linear, so scale every coefficient."""
        return CompressedTree(
            mw=self.mw,
            s0=alpha * self.s0,
            diffs={b: alpha * sd for b, sd in self.diffs.items()},
        )

    def add(self, other: "CompressedTree") -> "CompressedTree":
        """f + g in compressed form (the flagship MRA primitive: addition
        is coefficient-wise on the *union* of the two trees).

        Where one tree is refined deeper than the other, the shallower
        tree's missing wavelet coefficients are zero, so the union simply
        keeps the deeper tree's tensors; the scaling corners of shared
        internal boxes add consistently because compression is linear.
        """
        if self.mw is not other.mw and (
            self.mw.k != other.mw.k or self.mw.d != other.mw.d
        ):
            raise ValueError("trees use different multiwavelet bases")
        out: Dict[Box, np.ndarray] = {b: sd.copy() for b, sd in self.diffs.items()}
        for b, sd in other.diffs.items():
            if b in out:
                out[b] = out[b] + sd
            else:
                out[b] = sd.copy()
        # Boxes present in only one tree keep a scaling corner from that
        # tree alone, but the corner is recomputed during reconstruction
        # from the parent's data, so only the wavelet parts matter; we
        # zero the corners of non-shared boxes for consistency with the
        # identity "corner = own scaling coefficients" by re-deriving all
        # corners top-down.
        result = CompressedTree(mw=self.mw, s0=self.s0 + other.s0, diffs=out)
        result._refresh_scaling_corners()
        return result

    def _refresh_scaling_corners(self) -> None:
        """Re-derive every stored tensor's scaling corner from the root
        down so that ``corner == box's own scaling coefficients`` holds
        after algebraic operations."""
        mw = self.mw
        root = (0, (0,) * mw.d)
        stack: List[Tuple[Box, np.ndarray]] = [(root, self.s0)]
        while stack:
            box, s = stack.pop()
            sd = self.diffs.get(box)
            if sd is None:
                continue
            fixed = mw.set_scaling_corner(sd, s)
            self.diffs[box] = fixed
            kids = mw.unfilter(fixed)
            for child, cs in zip(mw.children(box), kids):
                stack.append((child, cs))

    def truncate(self, thresh: float) -> "CompressedTree":
        """Drop wavelet tensors with ||d|| < thresh (MADNESS truncation);
        children of dropped boxes are dropped too (the tree stays a tree).
        The L2 error of the result is at most sqrt(sum of dropped norms)."""
        mw = self.mw
        root = (0, (0,) * mw.d)
        kept: Dict[Box, np.ndarray] = {}
        stack = [root]
        while stack:
            box = stack.pop()
            sd = self.diffs.get(box)
            if sd is None:
                continue
            if box != root and np.sqrt(mw.wavelet_norm2(sd)) < thresh:
                continue  # drop this subtree's wavelet data
            kept[box] = sd
            stack.extend(mw.children(box))
        out = CompressedTree(mw=mw, s0=self.s0.copy(), diffs=kept)
        out._refresh_scaling_corners()
        return out

    def reconstruct(self) -> FunctionTree:
        """Top-down inverse transform back to the leaf representation."""
        mw = self.mw
        root = (0, (0,) * mw.d)
        leaves: Dict[Box, np.ndarray] = {}
        stack: List[Tuple[Box, np.ndarray]] = [(root, self.s0)]
        while stack:
            box, s = stack.pop()
            sd = self.diffs.get(box)
            if sd is None:
                leaves[box] = s
                continue
            kids = mw.unfilter(mw.set_scaling_corner(sd, s))
            for child, cs in zip(mw.children(box), kids):
                stack.append((child, cs))
        return FunctionTree(mw=mw, leaves=leaves)


def project_adaptive(
    mw: Multiwavelet,
    f: Callable[[np.ndarray], np.ndarray],
    thresh: float,
    max_level: int = 12,
    initial_level: int = 0,
) -> FunctionTree:
    """Adaptively project ``f`` on the unit cube to tolerance ``thresh``.

    ``initial_level`` forces refinement down to a minimum level before the
    convergence test applies (MADNESS's initial projection level; also the
    level at which the TTG keymap scatters subtrees across ranks).
    """
    tree = FunctionTree(mw=mw)

    def recurse(box: Box) -> None:
        n, _ = box
        kid_s = mw.project_children(f, box)
        _, sd = mw.filter(kid_s)
        dnorm = math.sqrt(mw.wavelet_norm2(sd))
        if (dnorm <= thresh and n >= initial_level) or n + 1 >= max_level:
            for b, s in zip(mw.children(box), kid_s):
                tree.leaves[b] = s
        else:
            for b in mw.children(box):
                recurse(b)

    recurse((0, (0,) * mw.d))
    return tree
