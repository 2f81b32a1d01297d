"""The engine contract holds for the engine a cluster binds.

These rows once ran the contract on the rank-sharded engine as well; the
row ids are kept.  Each row now builds the one engine a different way:

- ``seq``: a bare :class:`~repro.sim.engine.Engine`;
- ``sharded1``: the engine of a one-rank cluster;
- ``sharded4``: the engine of a four-rank cluster, with the run loop's
  one periodic hook, ``on_checkpoint``, firing before every event;
- ``sharded4-zero-la``: the same on a zero-latency network.

Rank count, network and armed observers may not change what runs when.
"""

from dataclasses import replace

import pytest

from repro.sim.cluster import Cluster, HAWK
from repro.sim.engine import Engine, EngineError

ZERO_LATENCY = replace(HAWK, network=replace(HAWK.network, latency=0.0))


def _armed(engine, calls):
    engine.on_checkpoint = lambda now, n: calls.append((now, n))
    engine.checkpoint_every = 1
    return engine


def make_engine(row, calls):
    if row == "seq":
        return Engine()
    if row == "sharded1":
        return Cluster(HAWK, 1).engine
    machine = HAWK if row == "sharded4" else ZERO_LATENCY
    return _armed(Cluster(machine, 4).engine, calls)


@pytest.fixture(params=["seq", "sharded1", "sharded4", "sharded4-zero-la"])
def eng(request):
    calls = []
    engine = make_engine(request.param, calls)
    engine.row = request.param
    yield engine
    # an armed hook only ever sees the clock and the count move forward
    assert calls == sorted(calls)


# ------------------------------------------------- shared contract


def test_runs_in_time_order(eng):
    hits = []
    eng.schedule(2.0, hits.append, "late")
    eng.schedule(1.0, hits.append, "early")
    eng.schedule(3.0, hits.append, "last")
    eng.run()
    assert hits == ["early", "late", "last"]


def test_ties_break_by_schedule_order_across_shards(eng):
    hits = []
    for i in range(10):
        eng.schedule(1.0, hits.append, i)
    eng.run()
    assert hits == list(range(10))


def test_zero_delay_events_run_after_current(eng):
    hits = []

    def outer():
        eng.schedule(0.0, hits.append, "inner")
        hits.append("outer")

    eng.schedule(1.0, outer)
    eng.run()
    assert hits == ["outer", "inner"]


def test_run_until_stops_clock(eng):
    hits = []
    eng.schedule(1.0, hits.append, 1)
    eng.schedule(5.0, hits.append, 5)
    eng.run(until=2.0)
    assert hits == [1]
    assert eng.now == 2.0
    eng.run()
    assert hits == [1, 5]


def test_run_max_events(eng):
    hits = []
    for i in range(5):
        eng.schedule(float(i + 1), hits.append, i)
    eng.run(max_events=2)
    assert hits == [0, 1]
    eng.run()
    assert hits == [0, 1, 2, 3, 4]


def test_step_executes_globally_next_event(eng):
    hits = []
    eng.schedule(2.0, hits.append, "b")
    eng.schedule(1.0, hits.append, "a")
    assert eng.step() is True
    assert hits == ["a"]
    assert eng.step() is True
    assert eng.step() is False
    assert hits == ["a", "b"]


def test_reset(eng):
    eng.schedule(1.0, lambda: None)
    eng.run()
    eng.reset()
    assert eng.now == 0.0
    assert eng.empty()
    assert eng.events_processed == 0


def test_reentrant_run_raises(eng):
    eng.schedule(1.0, eng.run)
    with pytest.raises(EngineError):
        eng.run()


def test_schedule_in_past_raises(eng):
    eng.schedule(1.0, lambda: None)
    eng.run()
    with pytest.raises(EngineError):
        eng.schedule_at(0.5, lambda: None)


def test_pending_counts_batch_members(eng):
    eng.schedule_batch(1.0, [(print, ()), (print, ())])
    eng.schedule(2.0, print)
    assert eng.pending == 3


def test_schedule_batch_preserves_order(eng):
    hits = []
    eng.schedule(1.0, hits.append, "before")
    eng.schedule_batch(1.0, [(hits.append, (i,)) for i in range(5)])
    eng.schedule(1.0, hits.append, "after")
    eng.run()
    assert hits == ["before", 0, 1, 2, 3, 4, "after"]


def test_schedule_batch_max_events_resumes_mid_burst(eng):
    hits = []
    eng.schedule_batch(1.0, [(hits.append, (i,)) for i in range(6)])
    eng.run(max_events=4)
    assert hits == [0, 1, 2, 3]
    eng.run()
    assert hits == [0, 1, 2, 3, 4, 5]


def test_exception_preserves_burst_tail(eng):
    hits = []

    def boom():
        raise RuntimeError("boom")

    eng.schedule_batch(
        1.0, [(hits.append, (0,)), (boom, ()), (hits.append, (2,))]
    )
    with pytest.raises(RuntimeError):
        eng.run()
    eng.run()
    assert hits == [0, 2]


def test_determinism_same_schedule_same_trace(eng):
    def build(e):
        hits = []
        for i in range(50):
            e.schedule((i * 7) % 5 * 0.25, hits.append, i)
        e.run()
        return hits

    assert build(eng) == build(make_engine(eng.row, []))


# --------------------------------------- what the sharded rows pinned


def test_events_inside_open_window_interleave_exactly():
    # An event scheduled while the loop runs, with a timestamp before the
    # next queued one, runs in exact (time, seq) position.
    eng = Engine()
    hits = []

    def first():
        hits.append("first")
        eng.schedule(1.0, hits.append, "injected")

    eng.schedule(0.0, first)
    eng.schedule(2.0, hits.append, "second")
    eng.run()
    assert hits == ["first", "injected", "second"]


def test_bind_topology_via_cluster():
    """A cluster binds the engine it is given and nothing else: the
    network schedules on it, and no per-rank or lookahead state is added
    to it whatever the topology."""
    eng = Engine()
    cluster = Cluster(HAWK, 8, engine=eng)
    assert cluster.engine is eng and cluster.network.engine is eng
    assert vars(eng).keys() == vars(Engine()).keys()


def test_shard_clocks_match_engine_clock():
    """There is one clock: after a run on a three-rank cluster, the
    engine and the network it drives read the time of the last event."""
    from repro.runtime import ParsecBackend

    cluster = Cluster(HAWK, 3)
    backend = ParsecBackend(cluster)
    cluster.engine.schedule(2.0, lambda: None)
    cluster.engine.run()
    assert cluster.engine.now == cluster.network.engine.now == 2.0
    assert backend.engine is cluster.engine


def test_create_engine_kinds():
    from repro.sim import ENGINE_KINDS

    assert ENGINE_KINDS == ("seq",)
    assert type(Cluster.with_engine(HAWK, 2, "seq").engine) is Engine
    # The multiprocess and sharded kinds were deleted, not aliased: each is
    # unknown, and the error lists what exists.
    for gone in ("sharded", "mp", "bogus"):
        with pytest.raises(ValueError, match=rf"'{gone}'.*known: \('seq',\)"):
            Cluster.with_engine(HAWK, 2, gone)


@pytest.mark.parametrize("argv", [
    ["--engine", "mp"],
    ["engine-bench", "--engines", "seq,sharded,mp"],
])
def test_bench_cli_rejects_removed_engine_kind(capsys, argv):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    rejected = next(arg for arg in argv if not arg.startswith("-"))
    assert f"invalid choice: '{rejected}'" in err
    assert "Traceback" not in err
