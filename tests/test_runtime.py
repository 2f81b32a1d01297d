"""Tests for schedulers, backends and the drain check."""

import pytest

from repro.linalg.tile import MatrixTile
from repro.runtime import (
    BACKENDS,
    BackendConfig,
    MadnessBackend,
    ParsecBackend,
    TerminationError,
    make_backend,
)
from repro.runtime.base import _ReadyTask
from repro.runtime.scheduler import SCHEDULER_NAMES, get_scheduler
from repro.sim.cluster import Cluster, HAWK


# ---------------------------------------------------------------- scheduler


def test_lifo_order():
    q = get_scheduler("lifo")
    for i in range(3):
        q.push(i)
    assert [q.pop() for _ in range(3)] == [2, 1, 0]


def test_fifo_order():
    q = get_scheduler("fifo")
    for i in range(3):
        q.push(i)
    assert [q.pop() for _ in range(3)] == [0, 1, 2]


def test_priority_order_and_fifo_ties():
    q = get_scheduler("priority")
    q.push("low", 1)
    q.push("hi-a", 9)
    q.push("hi-b", 9)
    q.push("mid", 5)
    assert [q.pop() for _ in range(4)] == ["hi-a", "hi-b", "mid", "low"]


def test_scheduler_len_bool():
    q = get_scheduler("fifo")
    assert not q
    q.push(1)
    assert len(q) == 1 and q


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_scheduler_truthiness_every_policy(name):
    q = get_scheduler(name)
    assert not q and len(q) == 0
    q.push("a", 1)
    q.push("b", 2)
    assert q and len(q) == 2
    q.pop()
    q.pop()
    assert not q


def test_unknown_scheduler():
    with pytest.raises(KeyError):
        get_scheduler("wat")
    assert set(SCHEDULER_NAMES) == {"fifo", "lifo", "priority"}


# ----------------------------------------------------------------- backends


def test_make_backend():
    assert isinstance(make_backend("parsec", Cluster(HAWK, 2)), ParsecBackend)
    assert isinstance(make_backend("MADNESS", Cluster(HAWK, 2)), MadnessBackend)
    with pytest.raises(KeyError):
        make_backend("legion", Cluster(HAWK, 2))
    assert set(BACKENDS) == {"parsec", "madness"}


def test_submit_runs_tasks_and_counts():
    be = ParsecBackend(Cluster(HAWK, 2))
    hits = []
    for i in range(5):
        be.submit(i % 2, lambda i=i: hits.append(i), flops=1e6, name="t", key=i)
    be.run()
    assert sorted(hits) == list(range(5))
    assert be.stats.tasks_executed == 5


def test_worker_pool_limits_concurrency():
    machine = HAWK.with_workers(2)
    be = ParsecBackend(Cluster(machine, 1))
    # 4 equal tasks on 2 workers take 2 rounds
    for i in range(4):
        be.submit(0, lambda: None, flops=2.5e10)  # 1 s each
    t = be.run()
    assert t == pytest.approx(2.0, rel=0.01)


def test_priority_scheduler_orders_queued_tasks():
    machine = HAWK.with_workers(1)
    be = ParsecBackend(Cluster(machine, 1))
    order = []
    # Block the single worker, then queue mixed priorities.
    be.submit(0, lambda: None, flops=2.5e9)
    be.submit(0, lambda: order.append("lo"), priority=1)
    be.submit(0, lambda: order.append("hi"), priority=10)
    be.run()
    assert order == ["hi", "lo"]


def test_post_local_runs_after_current_event():
    be = ParsecBackend(Cluster(HAWK, 1))
    seq = []

    def task():
        be.post_local(seq.append, "posted")
        seq.append("body")

    be.submit(0, task)
    be.run()
    assert seq == ["body", "posted"]


def test_send_value_roundtrip_parsec_uses_splitmd_for_big_tiles():
    be = ParsecBackend(Cluster(HAWK, 2))
    big = MatrixTile.synthetic(128, 128)  # 128 KiB > eager threshold
    got = []
    be.send_value(0, 1, big, got.append)
    be.run()
    assert got[0].shape == (128, 128)
    assert be.stats.rma_transfers == 1
    assert be.stats.splitmd_releases == 1


def test_send_value_small_tile_goes_eager():
    be = ParsecBackend(Cluster(HAWK, 2))
    small = MatrixTile.zeros(8, 8)  # 512 B <= eager threshold
    got = []
    be.send_value(0, 1, small, got.append)
    be.run()
    assert got[0].allclose(small)
    assert be.stats.rma_transfers == 0


def test_send_value_madness_never_splitmd():
    be = MadnessBackend(Cluster(HAWK, 2))
    big = MatrixTile.synthetic(256, 256)
    got = []
    be.send_value(0, 1, big, got.append)
    be.run()
    assert be.stats.rma_transfers == 0
    assert be.stats.copy_bytes > 0  # madness copies on both sides


def test_send_control():
    be = ParsecBackend(Cluster(HAWK, 2))
    got = []
    be.send_control(0, 1, lambda: got.append(True))
    be.run()
    assert got == [True]


def test_maybe_copy_local_modes():
    bep = ParsecBackend(Cluster(HAWK, 1))
    tile = MatrixTile.zeros(4, 4)
    v, d = bep.maybe_copy_local(tile, "cref")
    assert v is tile and d == 0.0  # parsec owns the data: no copy
    v, d = bep.maybe_copy_local(tile, "move")
    assert v is tile and d == 0.0
    v, d = bep.maybe_copy_local(tile, "value")
    assert v is not tile and v.allclose(tile) and d > 0.0

    bem = MadnessBackend(Cluster(HAWK, 1))
    v, d = bem.maybe_copy_local(tile, "cref")
    assert v is not tile and d > 0.0  # madness copies even const-ref


def _strand_queued_task(be, rank):
    """A task pushed onto a ready queue without a dispatch."""
    be.pools[rank]._queue.push(_ReadyTask(lambda: None, 0.0, 0.0, 0, "t", 0), 0)


def _strand_busy_worker(be, rank):
    """A worker marked busy whose completion event never comes."""
    be.pools[rank]._idle.pop()


def test_run_validates_termination():
    """Both backends' drains name the rank that lost work, for both shapes
    lost work can take."""
    for strand in (_strand_queued_task, _strand_busy_worker):
        for cls in (ParsecBackend, MadnessBackend):
            be = cls(Cluster(HAWK, 2))
            be.submit(0, lambda: None, flops=1e6)
            strand(be, 1)
            with pytest.raises(TerminationError, match="lost work on rank 1"):
                be.run()


def test_backend_config_affects_scheduler():
    cfg = BackendConfig(scheduler="fifo")
    machine = HAWK.with_workers(1)
    be = ParsecBackend(Cluster(machine, 1), config=cfg)
    order = []
    be.submit(0, lambda: None, flops=2.5e9)
    be.submit(0, lambda: order.append("first"), priority=0)
    be.submit(0, lambda: order.append("second"), priority=99)
    be.run()
    assert order == ["first", "second"]  # fifo ignores priorities
