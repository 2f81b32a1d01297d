"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import core as ttg
from repro.apps.floydwarshall import fw_reference
from repro.apps.mra.multiwavelet import Multiwavelet
from repro.linalg.blocksparse import IrregularTiling
from repro.linalg.tile import MatrixTile
from repro.linalg.tiled_matrix import BlockCyclicDistribution, grid_dims
from repro.runtime import ParsecBackend
from repro.serialization.archive import BufferInputArchive, BufferOutputArchive
from repro.sim.cluster import Cluster, HAWK
from repro.sim.engine import Engine

_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------- engine


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
@_settings
def test_engine_time_monotone_and_complete(delays):
    eng = Engine()
    fired = []
    for d in delays:
        eng.schedule(d, lambda d=d: fired.append(eng.now))
    eng.run()
    assert len(fired) == len(delays)
    assert fired == sorted(fired)
    assert eng.now == max(delays)


# ----------------------------------------------------------- serialization

_json_like = st.recursive(
    st.none()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)


@given(_json_like)
@_settings
def test_archive_roundtrip_property(value):
    data = BufferOutputArchive().store(value).bytes()
    assert BufferInputArchive(data).load() == value


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
)
@_settings
def test_tile_splitmd_roundtrip_property(rows, cols, synthetic):
    if synthetic:
        t = MatrixTile.synthetic(rows, cols)
    else:
        rng = np.random.default_rng(rows * 100 + cols)
        t = MatrixTile(rows, cols, rng.standard_normal((rows, cols)))
    clone = MatrixTile.splitmd_allocate(t.splitmd_metadata())
    payload = t.splitmd_payload()
    if payload is not None:
        clone.splitmd_fill(payload)
    assert clone == t or clone.allclose(t)


# ------------------------------------------------------------ distribution


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=12))
@_settings
def test_block_cyclic_is_partition(nranks, nt):
    p, q = grid_dims(nranks)
    assert p * q == nranks
    dist = BlockCyclicDistribution(p, q)
    seen = {}
    for r in range(nranks):
        for ij in dist.tiles_of_rank(r, nt):
            assert ij not in seen
            seen[ij] = r
    assert len(seen) == nt * nt
    # tiles per rank balanced within (ceil/floor) bounds
    counts = [sum(1 for _ in dist.tiles_of_rank(r, nt)) for r in range(nranks)]
    assert max(counts) - min(counts) <= (nt % p + 1) * nt


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=15),
       st.integers(min_value=9, max_value=20))
@_settings
def test_group_to_target_partition(units, target):
    t = IrregularTiling.group_to_target(units, target)
    assert sum(t.sizes) == sum(units)
    assert all(s <= target for s in t.sizes)


# -------------------------------------------------------------- streaming


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=4))
@_settings
def test_stream_fires_exactly_once_with_all_messages(nmsgs, nranks):
    e = ttg.Edge("s")
    fired = []

    def src(key, outs):
        for i in range(nmsgs):
            outs.send(0, "k", i + 1)

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, total, outs: fired.append(total), [e], [],
                    keymap=lambda k: nranks - 1)
    C.set_input_reducer(0, lambda a, b: a + b, size=nmsgs)
    ex = ttg.TaskGraph([S, C]).executable(ParsecBackend(Cluster(HAWK, nranks)))
    ex.invoke(S, 0)
    ex.fence()
    assert fired == [nmsgs * (nmsgs + 1) // 2]


# ------------------------------------------------------------ multiwavelet


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=10**6))
@_settings
def test_filter_roundtrip_and_parseval_property(k, d, seed):
    mw = Multiwavelet(k, d)
    rng = np.random.default_rng(seed)
    kids = [rng.standard_normal((k,) * d) for _ in range(2**d)]
    s, sd = mw.filter(kids)
    # Parseval
    assert np.isclose(sum(np.sum(c * c) for c in kids), np.sum(sd * sd))
    # round trip
    back = mw.unfilter(sd)
    for a, b in zip(kids, back):
        assert np.allclose(a, b)
    # scaling corner is s
    assert np.allclose(sd[(slice(0, k),) * d], s)


# ----------------------------------------------------------------- FW-APSP


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
@_settings
def test_fw_reference_fixed_point_and_triangle(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0, 10, (n, n))
    np.fill_diagonal(w, 0.0)
    d = fw_reference(w)
    # idempotent
    assert np.allclose(fw_reference(d), d)
    # triangle inequality
    for i in range(n):
        for j in range(n):
            assert d[i, j] <= d[i, 0] + d[0, j] + 1e-9
    # never longer than direct edge
    assert np.all(d <= w + 1e-12)
