"""Tests for node/cluster/machine presets."""

import pytest

from repro.sim.cluster import Cluster, HAWK, SEAWULF, machine_by_name
from repro.sim.node import NodeSpec


def test_compute_time_flop_bound():
    node = NodeSpec(workers=4, flops_per_worker=1e9, mem_bandwidth=1e12,
                    task_overhead=0.0)
    assert node.compute_time(1e9) == pytest.approx(1.0)


def test_compute_time_memory_bound():
    node = NodeSpec(workers=4, flops_per_worker=1e12, mem_bandwidth=4e9,
                    task_overhead=0.0)
    # per-worker memory bandwidth is 1e9; 1e9 bytes -> 1 s
    assert node.compute_time(1.0, bytes_moved=1e9) == pytest.approx(1.0)


def test_compute_time_includes_overhead():
    node = NodeSpec(task_overhead=5e-6)
    assert node.compute_time(0.0) == pytest.approx(5e-6)


def test_copy_time_single_thread():
    node = NodeSpec(copy_bandwidth=2e9)
    assert node.copy_time(1e9) == pytest.approx(0.5)


def test_node_flops_aggregate():
    node = NodeSpec(workers=10, flops_per_worker=2e9)
    assert node.node_flops == pytest.approx(2e10)


def test_invalid_node_spec():
    bad = (
        {"workers": 0},
        {"flops_per_worker": -1},
        {"copy_bandwidth": 0.0},
        {"task_overhead": -1e-3},
    )
    for kwargs in bad:
        with pytest.raises(ValueError):
            NodeSpec(**kwargs)
    # The work/span Graham cells use a free node: both limits stay legal.
    free = NodeSpec(copy_bandwidth=float("inf"), task_overhead=0.0)
    assert free.copy_time(1e9) == 0.0


def test_machine_presets():
    assert HAWK.name == "hawk"
    assert SEAWULF.name == "seawulf"
    assert HAWK.node.workers == 60
    assert SEAWULF.node.workers == 38
    # Hawk's HDR-200 is faster than Seawulf's FDR
    assert HAWK.network.bandwidth > SEAWULF.network.bandwidth


def test_machine_by_name():
    assert machine_by_name("HAWK") is HAWK
    assert machine_by_name("seawulf") is SEAWULF
    with pytest.raises(KeyError):
        machine_by_name("frontier")


def test_with_workers():
    m = HAWK.with_workers(8)
    assert m.node.workers == 8
    assert m.network == HAWK.network
    assert HAWK.node.workers == 60  # original untouched


def test_cluster_properties():
    c = Cluster(HAWK, nnodes=4)
    assert c.nranks == 4
    assert c.total_workers == 240
    assert c.peak_gflops == pytest.approx(240 * HAWK.node.flops_per_worker / 1e9)
    assert c.network.nnodes == 4


def test_cluster_invalid():
    with pytest.raises(ValueError):
        Cluster(HAWK, nnodes=0)


def test_each_cluster_has_own_engine():
    c1 = Cluster(HAWK, 2)
    c2 = Cluster(HAWK, 2)
    assert c1.engine is not c2.engine
