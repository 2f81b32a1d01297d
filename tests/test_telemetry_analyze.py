"""Analysis: critical path (hand-built diamond + real Cholesky), summaries,
byte splits and the text report."""

import numpy as np
import pytest

from repro.apps.cholesky import cholesky_ttg
from repro.linalg import BlockCyclicDistribution, TiledMatrix, spd_matrix
from repro.runtime import ParsecBackend
from repro.sim.cluster import Cluster, HAWK
from repro.telemetry.analyze import (
    critical_path,
    dep_edges,
    idle_breakdown,
    protocol_bytes,
    report,
    summary_by_template,
    task_nodes,
)
from repro.telemetry.events import EventBus, TID_RT, Telemetry


def _task(bus, template, key, start, end, rank=0, tid=0):
    bus.complete(template, rank, tid, start, end, cat="task",
                 args={"key": repr(key), "template": template})


def _dep(bus, src, dst):
    bus.instant("dep", 0, TID_RT, cat="dep", src=src, dst=dst)


def diamond_bus():
    """A -> (B, C) -> D; B is the long arm."""
    bus = EventBus(capacity=None)
    _task(bus, "A", 0, 0.0, 1.0)
    _task(bus, "B", 0, 1.0, 3.0, tid=1)
    _task(bus, "C", 0, 1.0, 2.0, tid=2)
    _task(bus, "D", 0, 3.0, 4.0)
    _dep(bus, "A[0]", "B[0]")
    _dep(bus, "A[0]", "C[0]")
    _dep(bus, "B[0]", "D[0]")
    _dep(bus, "C[0]", "D[0]")
    return bus


def test_critical_path_on_diamond():
    cp = critical_path(diamond_bus())
    assert cp.labels() == ["A[0]", "B[0]", "D[0]"]
    assert cp.compute_time == pytest.approx(4.0)
    assert cp.makespan == pytest.approx(4.0)
    assert cp.fraction == pytest.approx(1.0)
    assert "critical path: 3 tasks" in cp.report()


def test_critical_path_empty_bus():
    cp = critical_path(EventBus(capacity=None))
    assert cp.nodes == [] and cp.length == 0 and cp.fraction == 0.0


def test_critical_path_ignores_unmatched_and_backward_edges():
    bus = diamond_bus()
    _dep(bus, "GHOST[9]", "D[0]")       # producer never executed
    _dep(bus, "D[0]", "A[0]")           # violates start order: dropped
    cp = critical_path(bus)
    assert cp.labels() == ["A[0]", "B[0]", "D[0]"]


def test_task_nodes_and_dep_edges_extraction():
    bus = diamond_bus()
    nodes = task_nodes(bus)
    assert set(nodes) == {"A[0]", "B[0]", "C[0]", "D[0]"}
    assert nodes["B[0]"].duration == pytest.approx(2.0)
    assert ("A[0]", "B[0]") in dep_edges(bus)


def test_summary_by_template_ordering():
    bus = diamond_bus()
    _task(bus, "B", 1, 4.0, 6.0, tid=1)
    rows = summary_by_template(bus)
    assert rows[0].template == "B"          # largest total first
    assert rows[0].count == 2
    assert rows[0].total == pytest.approx(4.0)
    assert rows[0].mean == pytest.approx(2.0)


def test_idle_breakdown_workers_and_utilization():
    bus = diamond_bus()   # tids 0..2 used on rank 0 -> 3 workers inferred
    rows = idle_breakdown(bus)
    assert len(rows) == 1
    r = rows[0]
    assert r.rank == 0 and r.workers == 3
    assert r.busy == pytest.approx(5.0)
    assert r.idle == pytest.approx(3 * 4.0 - 5.0)
    assert r.utilization == pytest.approx(5.0 / 12.0)


def test_report_mentions_templates_and_ranks():
    text = report(diamond_bus())
    assert "events: 8" in text
    assert "template" in text and "rank" in text


@pytest.fixture(scope="module")
def cholesky_run():
    """One telemetered 2-rank Cholesky run."""
    n, b, nodes = 256, 64, 2
    a = spd_matrix(n, seed=3)
    A = TiledMatrix.from_dense(
        a, b, BlockCyclicDistribution.for_ranks(nodes), lower_only=True
    )
    tel = Telemetry(nranks=nodes, capacity=None)
    backend = ParsecBackend(Cluster(HAWK, nodes), telemetry=tel)
    res = cholesky_ttg(A, backend)
    assert np.allclose(np.tril(res.L.to_dense()), np.linalg.cholesky(a))
    return tel


@pytest.fixture(scope="module")
def cholesky_path(cholesky_run):
    return critical_path(cholesky_run)


def test_cholesky_critical_path_matches_known_chain(cholesky_path):
    """The dependency chain POTRF(k) -> TRSM -> {GEMM,SYRK} -> POTRF(k+1)
    must dominate: the path starts at POTRF[0], walks the factorization
    in k order, and consists of the four kernel templates."""
    cp = cholesky_path
    templates = [n.template for n in cp.nodes]
    assert cp.length >= 4
    assert "POTRF" in templates and "TRSM" in templates
    assert "GEMM" in templates or "SYRK" in templates
    kernel = [n for n in cp.nodes if n.template in ("POTRF", "TRSM", "SYRK", "GEMM")]
    assert kernel[0].template == "POTRF" and kernel[0].key == "0"
    potrf_ks = [int(n.key) for n in cp.nodes if n.template == "POTRF"]
    assert potrf_ks == sorted(potrf_ks)
    # Consecutive path nodes are really time-ordered (producer first).
    for a_, b_ in zip(cp.nodes, cp.nodes[1:]):
        assert a_.start <= b_.start
    assert 0.0 < cp.fraction <= 1.0


def test_report_on_empty_bus():
    text = report(EventBus(capacity=None))
    assert "events: 0" in text and "WARNING" not in text


def test_report_warns_loudly_on_dropped_events():
    bus = EventBus(nranks=1, capacity=4)
    for i in range(20):
        _task(bus, "T", i, float(i), float(i) + 0.5)
    assert sum(bus.dropped) == 16
    text = report(bus)
    assert "WARNING: 16 event(s) evicted" in text
    assert "rank 0: 16" in text
    assert "truncated window" in text and "--capacity" in text


def test_idle_breakdown_zero_task_rank():
    # Rank 1 only communicates; it must still appear, with comm time,
    # a defensive 1-worker floor and zero utilization.
    bus = diamond_bus()
    bus.complete("am", 1, TID_RT, 0.0, 0.5, cat="comm",
                 args={"nbytes": 64})
    rows = {r.rank: r for r in idle_breakdown(bus)}
    assert set(rows) == {0, 1}
    r1 = rows[1]
    assert r1.busy == 0.0 and r1.workers == 1
    assert r1.comm == pytest.approx(0.5)
    assert r1.utilization == 0.0
    assert r1.idle == pytest.approx(4.0)    # 1 worker * diamond makespan


def test_idle_breakdown_empty_bus():
    assert idle_breakdown(EventBus(capacity=None)) == []


def test_idle_breakdown_counts_lanes_never_filled():
    # One task on rank 0 and three on rank 1, all running at once on
    # 4-worker nodes: a quarter and three quarters of the lanes are busy,
    # although the task spans use only lanes 0 and 0..2.
    tel = Telemetry(nranks=2, capacity=None)
    backend = ParsecBackend(Cluster(HAWK.with_workers(4), 2), telemetry=tel)
    for rank, key in ((0, 0), (1, 1), (1, 2), (1, 3)):
        backend.submit(rank, lambda: None, flops=1e6, name="T", key=key)
    backend.run()
    rows = idle_breakdown(tel)
    assert [r.workers for r in rows] == [4, 4]
    assert [r.utilization for r in rows] == pytest.approx([0.25, 0.75])
    # A bare bus, as read back from a file, carries no worker count.
    assert [r.workers for r in idle_breakdown(tel.bus)] == [1, 3]


def test_summary_and_critical_path_on_comm_only_bus():
    bus = EventBus(capacity=None)
    bus.complete("am", 0, TID_RT, 0.0, 1.0, cat="comm", args={"nbytes": 8})
    assert summary_by_template(bus) == []
    cp = critical_path(bus)
    assert cp.length == 0 and cp.makespan == pytest.approx(1.0)


def test_protocol_bytes_split(cholesky_run):
    split = protocol_bytes(cholesky_run)
    assert split, "2-rank run must move bytes"
    assert all(isinstance(v, int) and v > 0 for v in split.values())
