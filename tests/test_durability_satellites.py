"""Satellites of the durability PR: archive coverage of every app payload
type and the report's checkpoint markers."""

import numpy as np
import pytest

from repro.linalg.blocksparse import BlockSparseMatrix, IrregularTiling
from repro.linalg.tile import MatrixTile
from repro.serialization.archive import BufferInputArchive, BufferOutputArchive
from repro.telemetry import Telemetry


def _roundtrip(value):
    return BufferInputArchive(BufferOutputArchive().store(value).bytes()).load()


# ----------------------------------------- archive coverage: linalg tiles


def test_archive_roundtrips_dense_matrix_tile():
    rng = np.random.default_rng(7)
    t = MatrixTile(5, 3, rng.standard_normal((5, 3)))
    out = _roundtrip(t)
    assert isinstance(out, MatrixTile)
    assert out.shape == (5, 3)
    assert np.allclose(out.data, t.data)


def test_archive_roundtrips_synthetic_tile():
    t = MatrixTile.synthetic(64, 64)
    out = _roundtrip(t)
    assert out.is_synthetic and out.shape == (64, 64)
    assert out.nbytes == t.nbytes


def test_archive_roundtrips_every_blocksparse_tile():
    """bspmm payloads: every stored block of an irregular block-sparse
    matrix survives the wire byte-for-byte."""
    rng = np.random.default_rng(3)
    tiling = IrregularTiling.group_to_target([3, 5, 2, 4, 6], target=8)
    dense = rng.standard_normal((tiling.n, tiling.n))
    dense[np.abs(dense) < 0.8] = 0.0
    m = BlockSparseMatrix.from_dense(dense, tiling, tiling)
    assert m.block_keys(), "need a nonempty sparsity pattern"
    for key, tile in m.blocks():
        out = _roundtrip(tile)
        assert np.allclose(out.data, tile.data), key
    # and the whole matrix object round-trips through the pickle frame
    whole = _roundtrip(m)
    assert whole.block_keys() == m.block_keys()
    assert np.allclose(whole.to_dense(), m.to_dense())


# -------------------------------------------- archive coverage: MRA types


@pytest.fixture(scope="module")
def mra_tree():
    from repro.apps.mra import Multiwavelet, project_adaptive, random_gaussians

    mw = Multiwavelet(k=4, d=1)
    f = random_gaussians(1, d=1, seed=5)[0]
    return project_adaptive(mw, f, thresh=1e-4, max_level=6)


def test_archive_roundtrips_mra_message():
    from repro.apps.mra.data import MraMessage

    rng = np.random.default_rng(1)
    msg = MraMessage(
        arrays=(rng.standard_normal((4, 4)), None, rng.standard_normal(6)),
        meta=((2, (1, 0)), "compress"),
        inflate=2.5,
    )
    out = _roundtrip(msg)
    assert isinstance(out, MraMessage)
    assert out.meta == msg.meta and out.inflate == msg.inflate
    assert out.arrays[1] is None
    assert np.allclose(out.arrays[0], msg.arrays[0])
    assert np.allclose(out.arrays[2], msg.arrays[2])
    assert out.nbytes == msg.nbytes


def test_archive_roundtrips_function_tree_nodes(mra_tree):
    """Every multiwavelet leaf tensor (box key + coefficients)."""
    assert mra_tree.leaves, "projection produced no leaves"
    for box, coeffs in mra_tree.leaves.items():
        out_box, out_coeffs = _roundtrip(box), _roundtrip(coeffs)
        assert out_box == box
        assert np.array_equal(out_coeffs, coeffs)


def test_archive_roundtrips_compressed_tree(mra_tree):
    ct = mra_tree.compress()
    out = _roundtrip(ct)
    assert np.allclose(out.s0, ct.s0)
    assert set(out.diffs) == set(ct.diffs)
    for box in ct.diffs:
        assert np.allclose(out.diffs[box], ct.diffs[box])
    assert out.norm2() == pytest.approx(ct.norm2())


# ------------------------------------------------------ report markers


@pytest.fixture()
def marked_run():
    tel = Telemetry(nranks=1, capacity=None)
    tel.bus.complete("T", 0, 0, 0.0, 2.0, cat="task",
                     args={"template": "T", "key": 0})
    tel.bus.instant("checkpoint", 0, 905, cat="ckpt", index=0, events=25,
                    digest="abc123def456")
    tel.bus.instant("checkpoint", 0, 905, cat="ckpt", index=1, events=50,
                    digest="0123456789ab")
    return tel


def test_gantt_draws_checkpoint_markers(marked_run):
    from repro.telemetry.report_html import gantt_svg

    svg = gantt_svg(marked_run)
    assert svg.count('stroke="#009E73"') == 2
    assert "checkpoint #0" in svg and "checkpoint #1" in svg
    assert "checkpoint</span>" in svg          # legend entry
    assert 'stroke="#D55E00"' not in svg       # no resume marker


def test_report_without_checkpoints_is_unchanged(tmp_path):
    from repro.telemetry.report_html import render_report

    tel = Telemetry(nranks=1, capacity=None)
    tel.bus.complete("T", 0, 0, 0.0, 1.0, cat="task",
                     args={"template": "T", "key": 0})
    html = render_report(tel)
    assert '<div class="resume">' not in html
    assert "checkpoint</span>" not in html
