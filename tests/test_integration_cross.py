"""Cross-cutting integration tests: multi-seed, multi-backend, multi-grid
equivalence of all four applications, plus telemetry analysis of a real
run.  These pin down that results are independent of placement,
scheduling policy, and backend -- the core promise of the model.
"""

import numpy as np
import pytest

from repro.apps.bspmm import bspmm_ttg
from repro.apps.cholesky import cholesky_ttg
from repro.apps.floydwarshall import floyd_warshall_ttg, fw_reference
from repro.apps.mra import mra_ttg, random_gaussians
from repro.linalg import (
    BlockCyclicDistribution,
    TiledMatrix,
    random_weight_matrix,
    spd_matrix,
    yukawa_blocksparse,
)
from repro.runtime import MadnessBackend, ParsecBackend
from repro.runtime.base import BackendConfig
from repro.sim import Cluster, HAWK, SEAWULF
from repro.telemetry import Telemetry, idle_breakdown, summary_by_template


@pytest.mark.parametrize("grid", [(1, 1), (1, 4), (2, 2), (4, 1)])
def test_cholesky_result_independent_of_grid(grid):
    a = spd_matrix(64, seed=100)
    A = TiledMatrix.from_dense(a, 16, BlockCyclicDistribution(*grid),
                               lower_only=True)
    res = cholesky_ttg(A, ParsecBackend(Cluster(HAWK, grid[0] * grid[1])))
    assert np.allclose(np.tril(res.L.to_dense()), np.linalg.cholesky(a))


@pytest.mark.parametrize("policy", ["lifo", "fifo", "priority"])
def test_fw_result_independent_of_scheduler(policy):
    w = random_weight_matrix(48, seed=101)
    W = TiledMatrix.from_dense(w, 16, BlockCyclicDistribution(2, 2))
    cfg = BackendConfig(scheduler=policy)
    res = floyd_warshall_ttg(W, ParsecBackend(Cluster(HAWK, 4), config=cfg))
    assert np.allclose(res.W.to_dense(), fw_reference(w))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bspmm_multi_seed_both_backends(seed):
    a = yukawa_blocksparse(18, target_tile=24, seed=seed)
    ref = a.to_dense() @ a.to_dense()
    for backend_cls in (ParsecBackend, MadnessBackend):
        res = bspmm_ttg(a, a, backend_cls(Cluster(SEAWULF, 3)))
        assert np.allclose(res.C.to_dense(), ref)


def test_mra_result_independent_of_rank_count():
    funcs = random_gaussians(3, d=2, exponent=900.0, seed=102)
    norms = []
    for nodes in (1, 2, 5):
        res = mra_ttg(funcs, ParsecBackend(Cluster(HAWK, nodes)),
                      k=4, thresh=1e-4, max_level=8, initial_level=1)
        norms.append(tuple(res.norms[f] for f in range(3)))
    assert norms[0] == norms[1] == norms[2]


def test_seawulf_slower_than_hawk_for_transfers():
    """Machine calibration sanity: Seawulf's FDR fabric moves the same
    tile slower than Hawk's HDR in virtual time."""
    from repro.linalg.tile import MatrixTile

    times = {}
    for machine in (HAWK, SEAWULF):
        be = ParsecBackend(Cluster(machine, 2))
        be.send_value(0, 1, MatrixTile.synthetic(512, 512), lambda v: None)
        times[machine.name] = be.run()
    assert times["seawulf"] > 2 * times["hawk"]


def test_profile_over_bspmm_run():
    tel = Telemetry(nranks=3, capacity=None)
    a = yukawa_blocksparse(15, target_tile=24, seed=3)
    res = bspmm_ttg(a, a, ParsecBackend(Cluster(HAWK, 3), telemetry=tel))
    by_name = {s.template: s.count for s in summary_by_template(tel)}
    assert by_name["MULTIPLY_ADD"] == res.plan.num_gemms
    ranks = idle_breakdown(tel)
    assert [r.workers for r in ranks] == [HAWK.node.workers] * 3
    assert sum(r.busy for r in ranks) > 0
    assert tel.bus.makespan() == pytest.approx(res.makespan)


def test_two_graphs_one_backend_sequential():
    """Virtual time accumulates across executions on one backend; results
    stay correct (the paper's runtimes host many DSLs/graphs at once)."""
    be = ParsecBackend(Cluster(HAWK, 2))
    a = spd_matrix(32, seed=5)
    A1 = TiledMatrix.from_dense(a, 16, BlockCyclicDistribution(1, 2),
                                lower_only=True)
    r1 = cholesky_ttg(A1, be)
    t_after_first = be.engine.now
    A2 = TiledMatrix.from_dense(a, 16, BlockCyclicDistribution(1, 2),
                                lower_only=True)
    r2 = cholesky_ttg(A2, be)
    assert np.allclose(r1.L.to_dense(), r2.L.to_dense())
    assert be.engine.now > t_after_first
    # per-run makespans measured from each run's start agree
    assert r1.makespan == pytest.approx(r2.makespan, rel=0.05)


def test_more_workers_never_slower():
    """Adding workers to a node cannot increase the virtual makespan."""
    times = []
    for workers in (2, 8, 32):
        a = TiledMatrix(2048, 128, BlockCyclicDistribution.for_ranks(2),
                        synthetic=True)
        be = ParsecBackend(Cluster(HAWK.with_workers(workers), 2))
        times.append(cholesky_ttg(a, be).makespan)
    assert times[0] >= times[1] >= times[2]


def test_faster_network_never_slower():
    from dataclasses import replace

    times = []
    for bw in (2.0e9, 24.0e9):
        machine = replace(HAWK.with_workers(8),
                          network=replace(HAWK.network, bandwidth=bw))
        a = TiledMatrix(2048, 128, BlockCyclicDistribution.for_ranks(4),
                        synthetic=True)
        times.append(cholesky_ttg(a, ParsecBackend(Cluster(machine, 4))).makespan)
    assert times[1] <= times[0]
