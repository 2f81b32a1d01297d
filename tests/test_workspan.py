"""The work/span oracle (:mod:`repro.bench.workspan`).

Every TTG run of a POTRF or FW cell on ``P = nodes * workers`` workers
takes at least ``max(S, W / P)``; on one node with a network that costs
nothing, the greedy scheduler also finishes within Graham's ``W / P + S``.
The fork-join baselines charge no task overhead, so their makespans are
held to ``W / P`` at their own blocking with the overhead zeroed.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps.cholesky import cholesky_ttg
from repro.apps.floydwarshall import floyd_warshall_ttg
from repro.baselines import forkjoin_fw, scalapack_cholesky, slate_cholesky
from repro.baselines.cholesky_variants import SCALAPACK_NB, SLATE_TILE
from repro.bench.workspan import fw_work_span, potrf_work_span
from repro.linalg import BlockCyclicDistribution, TiledMatrix
from repro.linalg.kernels import (
    effective_flops,
    fw_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)
from repro.runtime import MadnessBackend, ParsecBackend
from repro.sim.cluster import HAWK, SEAWULF, Cluster
from repro.sim.network import NetworkSpec

#: Relative slack for float rounding: a sum of task durations and a
#: virtual clock that adds them one by one differ in the last bits.
REL = 1e-9

APPS = {
    "potrf": (cholesky_ttg, potrf_work_span),
    "fw": (floyd_warshall_ttg, fw_work_span),
}

FREE_NETWORK = NetworkSpec(latency=0.0, bandwidth=math.inf, am_overhead=0.0)


def test_spans_match_hand_counted_chains():
    node = HAWK.with_workers(4).node
    o = node.task_overhead

    def t(flops, b):
        return node.compute_time(effective_flops(flops, b))

    # FW: A(k) -> B(k, j) -> D(i, j, k) -> A(k + 1), between INITIATOR and
    # RESULT.
    for nt in (2, 5):
        assert fw_work_span(nt, 64, node).span == pytest.approx(
            2 * o + 3 * nt * t(fw_flops(64), 64))
    # POTRF: the chain POTRF -> TRSM -> SYRK -> POTRF is not the longest;
    # a GEMM outweighs a POTRF plus a SYRK.
    nt, b = 8, 128
    one_chain = nt * t(potrf_flops(b), b) + (nt - 1) * (
        t(trsm_flops(b), b) + t(syrk_flops(b), b))
    assert potrf_work_span(nt, b, node).span > 2 * o + one_chain


@given(
    app=st.sampled_from(sorted(APPS)),
    nodes=st.integers(1, 8),
    workers=st.integers(1, 8),
    nt=st.integers(1, 9),
    b=st.sampled_from([32, 64, 128]),
    backend=st.sampled_from([ParsecBackend, MadnessBackend]),
    free=st.booleans(),
)
@example(app="potrf", nodes=1, workers=3, nt=8, b=64, backend=ParsecBackend, free=True)
@example(app="fw", nodes=1, workers=5, nt=7, b=32, backend=MadnessBackend, free=True)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_ttg_cells_respect_work_span_bounds(app, nodes, workers, nt, b, backend, free):
    driver, work_span = APPS[app]
    machine = HAWK.with_workers(workers)
    if free:
        machine = replace(machine, network=FREE_NETWORK,
                          node=replace(machine.node, copy_bandwidth=math.inf))
    a = TiledMatrix(nt * b, b, BlockCyclicDistribution.for_ranks(nodes), synthetic=True)
    makespan = driver(a, backend(Cluster(machine, nodes))).makespan
    ws = work_span(nt, b, machine.node)
    p = nodes * workers
    assert makespan >= ws.lower_bound(p) * (1 - REL), (makespan, ws)
    if free and nodes == 1:
        # Multi-node cells may exceed it: the keymap pins each task's rank.
        assert makespan <= ws.graham_bound(p) * (1 + REL), (makespan, ws)


def _overhead_free(machine):
    return replace(machine.node, task_overhead=0.0)


def test_forkjoin_baselines_respect_the_work_bound():
    """The small-scale baseline cells of Figs 5, 6 and 9."""
    hawk = HAWK.with_workers(16)
    fig5 = {(nodes, max(256, round(4096 * math.sqrt(nodes) / 256) * 256))
            for nodes in (1, 2, 4, 8, 16)}
    fig6 = {(16, n) for n in (6144, 8192, 12288, 16384)}
    for nodes, n in sorted(fig5 | fig6):
        p = nodes * hawk.node.workers
        for baseline, b in ((slate_cholesky, SLATE_TILE), (scalapack_cholesky, SCALAPACK_NB)):
            w = potrf_work_span(n // b, b, _overhead_free(hawk)).work
            makespan = baseline(Cluster(hawk, nodes), n).makespan
            assert makespan >= w / p * (1 - REL), (baseline.__name__, nodes, n)
    seawulf, n, b = SEAWULF.with_workers(4), 2048, 64
    w = fw_work_span(n // b, b, _overhead_free(seawulf)).work
    for nodes in (1, 4, 16):
        makespan = forkjoin_fw(Cluster(seawulf, nodes), n, b).makespan
        assert makespan >= w / (nodes * seawulf.node.workers) * (1 - REL), nodes
