"""Tests for the MRA application: multiwavelets, trees, and the TTG."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.mra import (
    Gaussian,
    GaussianSum,
    Multiwavelet,
    mra_ttg,
    project_adaptive,
    random_gaussians,
)
from repro.apps.mra.data import MraMessage
from repro.baselines.madness_mra import madness_mra
from repro.runtime import MadnessBackend, ParsecBackend
from repro.sim.cluster import Cluster, HAWK


# -------------------------------------------------------------- multiwavelet


@pytest.mark.parametrize("k", [1, 2, 4, 7])
def test_filter_matrix_orthogonal(k):
    mw = Multiwavelet(k, 1)
    w = mw.filter_matrix
    assert np.allclose(w @ w.T, np.eye(2 * k), atol=1e-12)


@pytest.mark.parametrize("k,d", [(3, 1), (4, 2), (3, 3)])
def test_filter_unfilter_roundtrip(k, d):
    mw = Multiwavelet(k, d)
    rng = np.random.default_rng(42)
    kids = [rng.standard_normal((k,) * d) for _ in range(2**d)]
    s, sd = mw.filter(kids)
    back = mw.unfilter(sd)
    for a, b in zip(kids, back):
        assert np.allclose(a, b)


def test_filter_parseval(apply_count=5):
    mw = Multiwavelet(4, 2)
    rng = np.random.default_rng(1)
    kids = [rng.standard_normal((4, 4)) for _ in range(4)]
    _, sd = mw.filter(kids)
    assert np.isclose(sum(np.sum(c * c) for c in kids), np.sum(sd * sd))


def test_wavelet_norm_excludes_scaling_corner():
    mw = Multiwavelet(3, 2)
    rng = np.random.default_rng(2)
    kids = [rng.standard_normal((3, 3)) for _ in range(4)]
    s, sd = mw.filter(kids)
    assert np.isclose(
        mw.wavelet_norm2(sd), np.sum(sd * sd) - np.sum(s * s)
    )


def test_projection_exact_for_polynomials():
    mw = Multiwavelet(5, 1)
    f = lambda x: 2.0 - x[0] + 0.5 * x[0] ** 3
    for box in [(0, (0,)), (2, (1,)), (3, (7,))]:
        s = mw.project_box(f, box)
        lo = box[1][0] / 2 ** box[0]
        hi = (box[1][0] + 1) / 2 ** box[0]
        xs = np.linspace(lo + 1e-9, hi - 1e-9, 5)[None, :]
        assert np.allclose(mw.eval_from_coeffs(s, box, xs), f(xs))


def test_projection_2d_polynomial():
    mw = Multiwavelet(4, 2)
    f = lambda x: 1.0 + x[0] * x[1] + x[1] ** 2
    s = mw.project_box(f, (1, (0, 1)))
    pts = np.stack([
        np.linspace(0.01, 0.49, 4),
        np.linspace(0.51, 0.99, 4),
    ])
    assert np.allclose(mw.eval_from_coeffs(s, (1, (0, 1)), pts), f(pts))


def test_two_scale_consistency():
    mw = Multiwavelet(6, 2)
    g = Gaussian((0.4, 0.6), 5.0, 1.0)  # smooth: quadrature near-exact
    kids = [mw.project_box(g, b) for b in mw.children((1, (0, 1)))]
    s, _ = mw.filter(kids)
    s_direct = mw.project_box(g, (1, (0, 1)))
    assert np.max(np.abs(s - s_direct)) < 2e-5


def test_children_parent_round_trip():
    mw = Multiwavelet(2, 3)
    box = (2, (1, 2, 3))
    kids = mw.children(box)
    assert len(kids) == 8
    assert len(set(kids)) == 8
    for c in kids:
        assert Multiwavelet.parent(c) == box
    idxs = sorted(Multiwavelet.child_index(c) for c in kids)
    assert idxs == list(range(8))


def test_root_has_no_parent():
    with pytest.raises(ValueError):
        Multiwavelet.parent((0, (0,)))


def test_invalid_orders():
    with pytest.raises(ValueError):
        Multiwavelet(0, 1)
    with pytest.raises(ValueError):
        Multiwavelet(3, 0)


def test_gaussian_analytic_norms():
    g = Gaussian((0.5, 0.5), 200.0, 2.0)
    assert g.norm2_analytic() == pytest.approx(4.0 * (math.pi / 400.0))
    gs = GaussianSum([g, g])
    # ||2g||^2 = 4 ||g||^2
    assert gs.norm2_analytic() == pytest.approx(4 * g.norm2_analytic())


def test_eval_from_coeffs_many_points_3d():
    # One contraction per point: 2 000 points in 3-D once asked for an
    # (N, N, N) intermediate of 64 GB.
    mw = Multiwavelet(8, 3)
    g = Gaussian((0.45, 0.5, 0.55), 4.0, 1.5)
    box = (1, (0, 1, 1))
    s = mw.project_box(g, box)
    pts = np.random.default_rng(11).uniform(
        [[0.0], [0.5], [0.5]], [[0.5], [1.0], [1.0]], size=(3, 2000)
    )
    vals = mw.eval_from_coeffs(s, box, pts)
    assert vals.shape == (2000,)
    assert np.max(np.abs(vals - g(pts))) < 1e-5  # order-8 projection error


# ------------------------------------------------- batched task-body kernels

_kernel_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
_multiwavelet = lru_cache(maxsize=None)(Multiwavelet)


@st.composite
def _boxes(draw, d):
    n = draw(st.integers(min_value=0, max_value=9))
    return (n, tuple(draw(st.integers(0, 2**n - 1)) for _ in range(d)))


@st.composite
def _functions(draw, d):
    center = st.tuples(*[st.floats(0.1, 0.9)] * d)
    term = st.builds(Gaussian, center, st.floats(0.5, 2000.0), st.floats(-2.0, 2.0))
    if draw(st.booleans()):
        return draw(term)
    return GaussianSum(draw(st.lists(term, min_size=1, max_size=3)))


@given(st.data(), st.integers(1, 6), st.integers(1, 3))
@_kernel_settings
def test_project_children_matches_project_box(data, k, d):
    mw = _multiwavelet(k, d)
    box = data.draw(_boxes(d))
    f = data.draw(_functions(d))
    batch = mw.project_children(f, box)
    kids = mw.children(box)
    assert batch.shape == (2**d,) + (k,) * d
    for c, child in enumerate(kids):
        assert Multiwavelet.child_index(child) == c
        assert np.max(np.abs(batch[c] - mw.project_box(f, child))) <= 1e-13


def _assemble_by_slices(mw, child_tensors):
    """The definition: child c fills the block its bit pattern names."""
    k, d = mw.k, mw.d
    big = np.zeros((2 * k,) * d)
    for c, s in enumerate(child_tensors):
        bits = [(c >> (d - 1 - t)) & 1 for t in range(d)]
        big[tuple(slice(b * k, (b + 1) * k) for b in bits)] = s
    return big


@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 10**6))
@_kernel_settings
def test_assemble_split_match_slice_definition(k, d, seed):
    mw = _multiwavelet(k, d)
    kids = np.random.default_rng(seed).standard_normal((2**d,) + (k,) * d)
    big = mw.assemble_children(list(kids))
    assert np.array_equal(big, _assemble_by_slices(mw, kids))
    assert np.array_equal(mw.assemble_children(kids), big)
    back = mw.split_children(big)
    assert np.array_equal(back, kids)
    # Fresh arrays both ways (a 1-D reshape would otherwise be a view).
    assert not np.shares_memory(big, kids)
    assert not np.shares_memory(back, big)
    # The separable transform is tensordot along every axis.
    ref = big
    for _ in range(d):
        ref = np.tensordot(ref, mw.filter_matrix, axes=([0], [1]))
    _, sd = mw.filter(kids)
    assert np.allclose(sd, ref, rtol=0, atol=1e-13)


def test_kernel_shape_checks():
    mw = Multiwavelet(3, 2)
    kids = [np.zeros((3, 3))] * 4
    with pytest.raises(ValueError):
        mw.assemble_children(kids[:3])
    with pytest.raises(ValueError):
        mw.assemble_children(kids[:3] + [np.zeros((3, 2))])
    with pytest.raises(ValueError):
        mw.unfilter(np.zeros((3, 3)))  # a (k,)*d tensor is not a filtered one
    with pytest.raises(ValueError):
        mw.project_children(Gaussian((0.5, 0.5), 10.0), (1, (0,)))
    with pytest.raises(ValueError):
        mw.children((1, (0, 1, 1)))


# --------------------------------------------------------------------- tree


@pytest.fixture(scope="module")
def tree_setup():
    mw = Multiwavelet(5, 2)
    gs = GaussianSum([
        Gaussian((0.4, 0.55), 400.0, 1.5),
        Gaussian((0.7, 0.3), 800.0, 0.7),
    ])
    tree = project_adaptive(mw, gs, thresh=1e-6, max_level=9, initial_level=1)
    return mw, gs, tree


def test_adaptive_tree_is_adaptive(tree_setup):
    mw, gs, tree = tree_setup
    levels = {b[0] for b in tree.leaves}
    assert len(levels) > 1  # irregular refinement depth


def test_tree_norm_matches_analytic(tree_setup):
    mw, gs, tree = tree_setup
    assert tree.norm2() == pytest.approx(gs.norm2_analytic(), rel=1e-4)


def test_compress_preserves_norm(tree_setup):
    mw, gs, tree = tree_setup
    ct = tree.compress()
    assert ct.norm2() == pytest.approx(tree.norm2(), rel=1e-12)


def test_compress_reconstruct_identity(tree_setup):
    mw, gs, tree = tree_setup
    rt = tree.compress().reconstruct()
    assert set(rt.leaves) == set(tree.leaves)
    for b in tree.leaves:
        assert np.allclose(rt.leaves[b], tree.leaves[b])


def test_tree_evaluate_matches_function(tree_setup):
    mw, gs, tree = tree_setup
    pts = np.random.default_rng(3).uniform(0.15, 0.85, size=(2, 30))
    assert np.max(np.abs(tree.evaluate(pts) - gs(pts))) < 1e-3


def test_internal_boxes_deepest_first(tree_setup):
    _, _, tree = tree_setup
    boxes = tree.internal_boxes()
    levels = [b[0] for b in boxes]
    assert levels == sorted(levels, reverse=True)
    assert (0, (0, 0)) == boxes[-1]


def test_max_level_caps_refinement():
    mw = Multiwavelet(3, 1)
    g = Gaussian((0.5,), 1e5, 1.0)  # too sharp to resolve by level 5
    tree = project_adaptive(mw, g, thresh=1e-12, max_level=5, initial_level=3)
    assert tree.depth() == 5


# ---------------------------------------------------------------- MraMessage


def test_mra_message_splitmd_roundtrip():
    rng = np.random.default_rng(4)
    msg = MraMessage((rng.standard_normal((3, 3)), None), ("meta", 1), inflate=2.0)
    meta = msg.splitmd_metadata()
    clone = MraMessage.splitmd_allocate(meta)
    clone.splitmd_fill(msg.splitmd_payload())
    assert np.allclose(clone.arrays[0], msg.arrays[0])
    assert clone.arrays[1] is None
    assert clone.meta == ("meta", 1)


def test_mra_message_nbytes_inflated():
    a = np.zeros((4, 4))
    assert MraMessage((a,), (), inflate=3.0).nbytes == pytest.approx(
        3 * a.nbytes + 32
    )


def test_mra_message_clone_independent():
    a = np.zeros((2, 2))
    m = MraMessage((a,), ())
    c = m.clone()
    c.arrays[0][0, 0] = 5.0
    assert m.arrays[0][0, 0] == 0.0


# ------------------------------------------------------------------ TTG MRA


@pytest.mark.parametrize("backend_cls", [ParsecBackend, MadnessBackend])
def test_ttg_matches_sequential(backend_cls):
    funcs = random_gaussians(4, d=2, exponent=1500.0, seed=6)
    backend = backend_cls(Cluster(HAWK, 4))
    res = mra_ttg(funcs, backend, k=4, thresh=1e-5, max_level=9, initial_level=1)
    mw = Multiwavelet(4, 2)
    for fid, f in enumerate(funcs):
        ref = project_adaptive(mw, f, 1e-5, max_level=9, initial_level=1)
        assert set(res.leaves[fid]) == set(ref.leaves)
        for b in ref.leaves:
            assert np.allclose(res.leaves[fid][b], ref.leaves[b])
        assert res.norms[fid] == pytest.approx(ref.norm2(), rel=1e-10)


def test_ttg_mra_3d():
    funcs = random_gaussians(2, d=3, exponent=500.0, seed=7)
    res = mra_ttg(funcs, ParsecBackend(Cluster(HAWK, 2)), k=3, thresh=1e-3,
                  max_level=6, initial_level=1)
    mw = Multiwavelet(3, 3)
    for fid, f in enumerate(funcs):
        ref = project_adaptive(mw, f, 1e-3, max_level=6, initial_level=1)
        assert res.norms[fid] == pytest.approx(ref.norm2(), rel=1e-10)


def test_ttg_task_counts_consistent():
    funcs = random_gaussians(3, d=2, exponent=1000.0, seed=8)
    res = mra_ttg(funcs, ParsecBackend(Cluster(HAWK, 2)), k=4, thresh=1e-4,
                  max_level=8, initial_level=1)
    tc = res.task_counts
    # one compress and one reconstruct per internal box == one project each
    assert tc["PROJECT"] == tc["COMPRESS"] == tc["RECONSTRUCT"]
    assert tc["OUTPUT"] == res.total_nodes
    assert tc["NORM_RESULT"] == 3


def test_mra_cell_statistics_pinned():
    # Literals recorded before the batched kernels went in: a kernel change
    # that flips one refinement decision moves every number below.
    funcs = random_gaussians(2, d=3, exponent=200.0, seed=0)
    args = dict(k=4, thresh=1e-3, max_level=5)
    backend = ParsecBackend(Cluster(HAWK, 4))
    res = mra_ttg(funcs, backend, **args)
    assert backend.stats.tasks_by_template == {
        "PROJECT": 98, "COMPRESS": 98, "RECONSTRUCT": 98,
        "NORM_RESULT": 2, "OUTPUT": 688,
    }
    assert backend.stats.bytes_by_protocol == {"control": 3072, "generic": 116616}
    assert repr(res.makespan) == "6.85391933333333e-05"
    assert res.total_nodes == 688
    native = madness_mra(Cluster(HAWK, 4), funcs, **args)
    assert repr(native.makespan) == "0.00014008048"
    assert native.total_nodes == 786


def test_random_gaussians_properties():
    funcs = random_gaussians(10, d=3, exponent=2e4, seed=9)
    assert len(funcs) == 10
    for f in funcs:
        assert f.d == 3
        (g,) = f.terms
        assert all(0.2 <= c <= 0.8 for c in g.center)
    # deterministic
    funcs2 = random_gaussians(10, d=3, exponent=2e4, seed=9)
    assert all(
        f1.terms[0].center == f2.terms[0].center for f1, f2 in zip(funcs, funcs2)
    )


def test_mra_requires_functions():
    with pytest.raises(ValueError):
        mra_ttg([], ParsecBackend(Cluster(HAWK, 1)))


# ----------------------------------------------------- compressed algebra


@pytest.fixture(scope="module")
def two_trees():
    mw = Multiwavelet(5, 2)
    f = GaussianSum([Gaussian((0.4, 0.5), 300.0, 1.0)])
    g = GaussianSum([Gaussian((0.6, 0.6), 700.0, 0.5)])
    tf = project_adaptive(mw, f, 1e-7, max_level=9, initial_level=1).compress()
    tg = project_adaptive(mw, g, 1e-7, max_level=9, initial_level=1).compress()
    return mw, f, g, tf, tg


def test_add_matches_analytic_norm(two_trees):
    mw, f, g, tf, tg = two_trees
    th = tf.add(tg)
    fg = GaussianSum(f.terms + g.terms)
    assert th.norm2() == pytest.approx(fg.norm2_analytic(), rel=1e-4)


def test_add_pointwise(two_trees):
    mw, f, g, tf, tg = two_trees
    rt = tf.add(tg).reconstruct()
    pts = np.random.default_rng(5).uniform(0.25, 0.75, size=(2, 15))
    fg = GaussianSum(f.terms + g.terms)
    assert np.max(np.abs(rt.evaluate(pts) - fg(pts))) < 1e-4


def test_add_union_tree(two_trees):
    mw, f, g, tf, tg = two_trees
    th = tf.add(tg)
    assert set(th.diffs) == set(tf.diffs) | set(tg.diffs)


def test_add_commutative(two_trees):
    mw, f, g, tf, tg = two_trees
    a = tf.add(tg)
    b = tg.add(tf)
    assert a.norm2() == pytest.approx(b.norm2(), rel=1e-12)
    assert np.allclose(a.s0, b.s0)


def test_scale_linearity(two_trees):
    mw, f, g, tf, tg = two_trees
    assert tf.scale(3.0).norm2() == pytest.approx(9.0 * tf.norm2(), rel=1e-12)
    assert tf.scale(-1.0).add(tf).norm2() == pytest.approx(0.0, abs=1e-18)


def test_truncate_error_bound(two_trees):
    mw, f, g, tf, tg = two_trees
    th = tf.add(tg)
    thresh = 1e-3
    tt = th.truncate(thresh)
    dropped = len(th.diffs) - len(tt.diffs)
    assert dropped > 0
    # Parseval error bound: sqrt(sum of dropped wavelet norms^2)
    import math as _math
    bound = _math.sqrt(dropped) * thresh
    assert abs(_math.sqrt(tt.norm2()) - _math.sqrt(th.norm2())) <= bound


def test_truncate_keeps_tree_connected(two_trees):
    mw, f, g, tf, tg = two_trees
    tt = tf.add(tg).truncate(1e-4)
    for box in tt.diffs:
        n, l = box
        if n > 0:
            assert Multiwavelet.parent(box) in tt.diffs


def test_add_rejects_mismatched_bases():
    mw1 = Multiwavelet(3, 1)
    mw2 = Multiwavelet(4, 1)
    g = Gaussian((0.5,), 50.0, 1.0)
    t1 = project_adaptive(mw1, g, 1e-5, max_level=7).compress()
    t2 = project_adaptive(mw2, g, 1e-5, max_level=7).compress()
    with pytest.raises(ValueError):
        t1.add(t2)
