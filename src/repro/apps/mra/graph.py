"""The MRA template task graph (paper III-E).

Four templates, one logical phase each, with *no barriers between phases*
-- data streams from projection through compression, reconstruction and
norm across all function trees concurrently (the paper's key difference
from the native MADNESS implementation):

- **PROJECT** ``(fid, n, l)``: adaptively projects a box: computes the 2^d
  children's scaling coefficients by quadrature, filters, and either
  declares the children leaves (feeding this box's COMPRESS stream) or
  recurses by control messages.
- **COMPRESS** ``(fid, n, l)``: a *streaming terminal* accumulating exactly
  2^d child contributions (Listing 3: ``set_input_reducer`` with static
  size); filters, forwards its scaling part up the tree, and sends the
  wavelet part to RECONSTRUCT.  Subtree norm contributions ride along (a
  tree reduction), so the root emits the function norm.
- **RECONSTRUCT** ``(fid, n, l)``: inverse transform top-down; leaf
  children land in OUTPUT.
- **OUTPUT** / **NORM_RESULT**: collect reconstructed leaves and the norm.

The keymap randomly distributes subtrees at a target refinement level
(over-decomposition, paper III-E).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro import core as ttg
from repro.apps.mra.data import MraMessage
from repro.apps.mra.multiwavelet import Box, Multiwavelet
from repro.core.keymap import subtree_keymap
from repro.core.messaging import TaskOutputs

Key = Tuple[int, int, Tuple[int, ...]]  # (fid, level, index)


def _collect(acc: Any, x: Any) -> List[Any]:
    """Stream reducer: accumulate messages into a list."""
    if not isinstance(acc, list):
        acc = [acc]
    acc.append(x)
    return acc


def build_mra_graph(
    mw: Multiwavelet,
    functions: List[Callable[[np.ndarray], np.ndarray]],
    norms_out: Dict[int, float],
    leaves_out: Dict[int, Dict[Box, np.ndarray]],
    *,
    nranks: int,
    thresh: float,
    max_level: int = 12,
    initial_level: int = 0,
    target_level: int = 2,
    inflate: float = 1.0,
    flops_scale: float = 1.0,
) -> Tuple[ttg.TaskGraph, ttg.TemplateTask]:
    """Build the MRA TTG for ``functions`` (index = fid).

    Reconstructed leaf tensors land in ``leaves_out[fid]``; function norms
    in ``norms_out[fid]``.  Returns (graph, project-template).
    """
    d = mw.d
    nchild = 2**d
    keymap = subtree_keymap(nranks, target_level)

    project_ctl = ttg.Edge("project_ctl", key_type=tuple)
    compress_in = ttg.Edge("compress_in", key_type=tuple, value_type=MraMessage)
    recon_diff = ttg.Edge("recon_diff", key_type=tuple, value_type=MraMessage)
    recon_s = ttg.Edge("recon_s", key_type=tuple, value_type=MraMessage)
    leaf_out = ttg.Edge("leaf_out", key_type=tuple, value_type=MraMessage)
    norm_out = ttg.Edge("norm_out", key_type=int, value_type=MraMessage)

    # -------------------------------------------------------------- bodies

    def project_body(key: Key, _ctl, outs: TaskOutputs) -> None:
        fid, n, l = key
        f = functions[fid]
        kid_s = mw.project_children(f, (n, l))
        _, sd = mw.filter(kid_s)
        dnorm = math.sqrt(mw.wavelet_norm2(sd))
        if (dnorm <= thresh and n >= initial_level) or n + 1 >= max_level:
            # Children are leaves: feed this box's compress stream.  Child
            # tensors are views of the one batch array.
            for idx, s in enumerate(kid_s):
                outs.send(
                    "leafup",
                    (fid, n, l),
                    MraMessage((s,), (idx, 0.0, True), inflate),
                    mode="move",
                )
        else:
            for b in mw.children((n, l)):
                outs.send("refine", (fid, b[0], b[1]))

    def compress_body(key: Key, msgs, outs: TaskOutputs) -> None:
        fid, n, l = key
        if not isinstance(msgs, list):
            msgs = [msgs]
        if len(msgs) != nchild:
            raise RuntimeError(f"compress got {len(msgs)} of {nchild} children")
        kid_s: List[np.ndarray] = [None] * nchild  # type: ignore[list-item]
        mask = 0
        usum = 0.0
        for m in msgs:
            idx, u, is_leaf = m.meta
            kid_s[idx] = m.arrays[0]
            usum += u
            if is_leaf:
                mask |= 1 << idx
        s, sd = mw.filter(kid_s)
        u_box = usum + mw.wavelet_norm2(sd)
        outs.send(
            "diff", (fid, n, l), MraMessage((sd,), (mask,), inflate), mode="move"
        )
        if n > 0:
            pn, pl = mw.parent((n, l))
            idx = mw.child_index((n, l))
            outs.send(
                "up",
                (fid, pn, pl),
                MraMessage((s,), (idx, u_box, False), inflate),
                mode="move",
            )
        else:
            norm2 = u_box + float(np.sum(s * s))
            outs.send("norm", fid, MraMessage((s,), (norm2,), inflate), mode="cref")
            outs.send("root_s", (fid, 0, l), MraMessage((s,), (), inflate), mode="cref")

    def reconstruct_body(key: Key, smsg: MraMessage, dmsg: MraMessage, outs: TaskOutputs) -> None:
        fid, n, l = key
        s = smsg.arrays[0]
        sd = dmsg.arrays[0]
        (mask,) = dmsg.meta
        kids = mw.unfilter(mw.set_scaling_corner(sd, s))
        for idx, (b, cs) in enumerate(zip(mw.children((n, l)), kids)):
            msg = MraMessage((cs,), (), inflate)
            if mask & (1 << idx):
                outs.send("leaf", (fid, b[0], b[1]), msg, mode="move")
            else:
                outs.send("down", (fid, b[0], b[1]), msg, mode="move")

    def output_body(key: Key, msg: MraMessage, outs: TaskOutputs) -> None:
        fid, n, l = key
        leaves_out.setdefault(fid, {})[(n, l)] = msg.arrays[0]

    def norm_body(fid: int, msg: MraMessage, outs: TaskOutputs) -> None:
        norms_out[fid] = msg.meta[0]

    # ------------------------------------------------------------ templates

    nterms = max(
        (len(getattr(f, "terms", [0])) for f in functions), default=1
    )
    proj_flops = mw.project_flops() * max(nterms, 1) * flops_scale
    filt_flops = mw.filter_flops() * flops_scale

    project = ttg.make_tt(
        project_body,
        [project_ctl],
        [project_ctl, compress_in],
        name="PROJECT",
        keymap=keymap,
        priomap=lambda key: 3_000_000 - key[1],  # shallow boxes first
        cost=lambda key, _c: proj_flops,
        output_names=["refine", "leafup"],
    )
    # PROJECT is seeded by direct invoke at the root boxes (no initiator
    # template); waiving source-reachability here makes the downstream
    # compress/reconstruct/output templates reachable for the linter.
    project.lint_waive("TTG004")
    compress = ttg.make_tt(
        compress_body,
        [compress_in],
        [compress_in, recon_diff, norm_out, recon_s],
        name="COMPRESS",
        keymap=keymap,
        priomap=lambda key: 2_000_000 + key[1],  # deep boxes first (bottom-up)
        cost=lambda key, _m: filt_flops,
        output_names=["up", "diff", "norm", "root_s"],
    )
    # Streaming terminal with the static size 2^d (Listing 3).
    compress.set_input_reducer(0, _collect, size=nchild)
    reconstruct = ttg.make_tt(
        reconstruct_body,
        [recon_s, recon_diff],
        [recon_s, leaf_out],
        name="RECONSTRUCT",
        keymap=keymap,
        priomap=lambda key: 1_000_000 - key[1],
        cost=lambda key, _s, _d: filt_flops,
        output_names=["down", "leaf"],
    )
    output = ttg.make_tt(
        output_body, [leaf_out], [], name="OUTPUT", keymap=keymap,
    )
    norm_result = ttg.make_tt(
        norm_body, [norm_out], [], name="NORM_RESULT",
        keymap=lambda fid: fid % nranks,
    )

    graph = ttg.TaskGraph(
        [project, compress, reconstruct, output, norm_result], name="mra"
    )
    return graph, project
