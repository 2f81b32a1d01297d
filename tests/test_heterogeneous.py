"""Tests for the heterogeneous (accelerator) extension.

The paper lists heterogeneous-platform support as future work; this
extension adds device slots to the node model, per-template device maps,
and PCIe-transfer accounting with a residency cache.
"""

import numpy as np
import pytest
from dataclasses import replace

from repro import core as ttg
from repro.linalg import BlockCyclicDistribution, TiledMatrix, spd_matrix
from repro.runtime import ParsecBackend
from repro.sim.cluster import Cluster, HAWK, MachineSpec
from repro.sim.node import NodeSpec


def gpu_machine(gpus=2, gpu_flops=500.0e9) -> MachineSpec:
    node = replace(HAWK.node, workers=4, gpus=gpus, gpu_flops=gpu_flops,
                   pcie_bandwidth=12.0e9)
    return replace(HAWK, node=node)


def test_node_spec_validation():
    with pytest.raises(ValueError):
        NodeSpec(gpus=-1)
    with pytest.raises(ValueError):
        NodeSpec(gpus=2, gpu_flops=0.0)
    with pytest.raises(ValueError):
        NodeSpec(gpus=0).gpu_compute_time(1.0)


def test_gpu_compute_time_includes_pcie():
    node = NodeSpec(gpus=1, gpu_flops=1e12, pcie_bandwidth=1e10,
                    task_overhead=0.0)
    t = node.gpu_compute_time(1e12, transfer_bytes=1e10)
    assert t == pytest.approx(2.0)


def test_gpu_task_requires_gpu():
    be = ParsecBackend(Cluster(HAWK, 1))  # no gpus on the preset
    with pytest.raises(RuntimeError):
        be.submit(0, lambda: None, device="gpu")
        be.run()


def test_gpu_tasks_execute_and_count():
    be = ParsecBackend(Cluster(gpu_machine(), 1))
    hits = []
    for i in range(4):
        be.submit(0, lambda i=i: hits.append(i), flops=1e9, device="gpu")
    be.run()
    assert sorted(hits) == [0, 1, 2, 3]
    assert be.pools[0].gpu_tasks_executed == 4


def test_gpu_slots_limit_concurrency():
    machine = gpu_machine(gpus=2, gpu_flops=1e9)
    be = ParsecBackend(Cluster(machine, 1))
    for _ in range(4):
        be.submit(0, lambda: None, flops=1e9, device="gpu")  # 1 s each
    t = be.run()
    assert t == pytest.approx(2.0, rel=0.02)  # 4 tasks over 2 slots


def test_residency_cache_avoids_repeat_transfers():
    machine = gpu_machine(gpus=1)
    be = ParsecBackend(Cluster(machine, 1))
    from repro.linalg.tile import MatrixTile

    tile = MatrixTile.synthetic(256, 256)
    for _ in range(3):
        be.submit(0, lambda: None, flops=1e6, device="gpu", inputs=(tile,))
    be.run()
    assert be.pools[0].gpu_transfer_bytes == tile.nbytes  # paid once


def test_devicemap_constant_and_callable():
    tt1 = ttg.make_tt(lambda k, outs: None, [], []).set_devicemap("gpu")
    assert tt1.device(0) == "gpu"
    tt2 = ttg.make_tt(lambda k, outs: None, [], []).set_devicemap(
        lambda k: "gpu" if k % 2 else "cpu"
    )
    assert tt2.device(1) == "gpu" and tt2.device(2) == "cpu"
    tt3 = ttg.make_tt(lambda k, outs: None, [], [])
    assert tt3.device(0) == "cpu"


def test_gpu_cholesky_correct_and_faster():
    """Offloading the O(n^3) kernels to the device speeds up the factor
    and keeps it bit-correct."""
    n, b, nodes = 128, 32, 2
    a = spd_matrix(n, seed=9)
    machine = gpu_machine(gpus=2, gpu_flops=400.0e9)

    def run(offload):
        A = TiledMatrix.from_dense(a, b, BlockCyclicDistribution.for_ranks(nodes),
                                   lower_only=True)
        result = TiledMatrix(n, b, A.dist)
        from repro.apps.cholesky.graph import build_cholesky_graph

        graph, initiator = build_cholesky_graph(A, result)
        if offload:
            for tt in graph.tts:
                if tt.name in ("TRSM", "SYRK", "GEMM"):
                    tt.set_devicemap("gpu")
        backend = ParsecBackend(Cluster(machine, nodes))
        ex = graph.executable(backend)
        for r in range(nodes):
            ex.invoke(initiator, r)
        makespan = ex.fence()
        return result, makespan, backend

    cpu_res, t_cpu, _ = run(offload=False)
    gpu_res, t_gpu, be = run(offload=True)
    L = np.tril(gpu_res.L.to_dense()) if hasattr(gpu_res, "L") else np.tril(gpu_res.to_dense())
    assert np.allclose(np.tril(gpu_res.to_dense()), np.linalg.cholesky(a))
    assert np.allclose(gpu_res.to_dense(), cpu_res.to_dense())
    # 400 GF device vs 4x25 GF host: the offloaded run must be faster.
    assert t_gpu < t_cpu
    assert sum(p.gpu_tasks_executed for p in be.pools) > 0


def test_gpu_tasks_traced_with_device_label():
    from repro.telemetry import Telemetry

    tel = Telemetry(nranks=1, capacity=None)
    machine = gpu_machine()
    be = ParsecBackend(Cluster(machine, 1), telemetry=tel)
    be.submit(0, lambda: None, flops=1e6, device="gpu", name="K")
    be.run()
    (span,) = tel.bus.spans("task")
    assert span.name == "K@gpu"
    assert span.tid >= machine.node.workers  # device lanes
