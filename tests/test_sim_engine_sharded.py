"""ShardedEngine honours the full sequential-engine contract, plus the
shard/window behaviour that is specific to it."""

import pytest

from repro.sim.cluster import Cluster, HAWK
from repro.sim.engine import Engine, EngineError
from repro.sim.sharded import ENGINE_KINDS, ShardedEngine, create_engine


def make_engines():
    return [
        Engine(),
        ShardedEngine(nshards=1),
        ShardedEngine(nshards=4, lookahead=0.5),
        ShardedEngine(nshards=4, lookahead=0.0),
    ]


def engine_ids():
    return ["seq", "sharded1", "sharded4", "sharded4-zero-la"]


@pytest.fixture(params=range(4), ids=engine_ids())
def eng(request):
    return make_engines()[request.param]


# ------------------------------------------------- shared contract


def test_runs_in_time_order(eng):
    hits = []
    eng.schedule(2.0, hits.append, "late", rank=1)
    eng.schedule(1.0, hits.append, "early", rank=2)
    eng.schedule(3.0, hits.append, "last", rank=3)
    eng.run()
    assert hits == ["early", "late", "last"]


def test_ties_break_by_schedule_order_across_shards(eng):
    hits = []
    for i in range(10):
        eng.schedule(1.0, hits.append, i, rank=i)
    eng.run()
    assert hits == list(range(10))


def test_zero_delay_events_run_after_current(eng):
    hits = []

    def outer():
        eng.schedule(0.0, hits.append, "inner", rank=3)
        hits.append("outer")

    eng.schedule(1.0, outer, rank=0)
    eng.run()
    assert hits == ["outer", "inner"]


def test_cancel_skips_event(eng):
    hits = []
    ev = eng.schedule(1.0, hits.append, "cancelled", rank=1)
    eng.schedule(2.0, hits.append, "kept", rank=2)
    ev.cancel()
    eng.run()
    assert hits == ["kept"]


def test_empty_accounts_for_cancelled(eng):
    ev = eng.schedule(1.0, lambda: None, rank=2)
    assert not eng.empty()
    ev.cancel()
    assert eng.empty()


def test_run_until_stops_clock(eng):
    hits = []
    eng.schedule(1.0, hits.append, 1, rank=0)
    eng.schedule(5.0, hits.append, 5, rank=1)
    eng.run(until=2.0)
    assert hits == [1]
    assert eng.now == 2.0
    eng.run()
    assert hits == [1, 5]


def test_run_max_events(eng):
    hits = []
    for i in range(5):
        eng.schedule(float(i + 1), hits.append, i, rank=i)
    eng.run(max_events=2)
    assert hits == [0, 1]
    eng.run()
    assert hits == [0, 1, 2, 3, 4]


def test_step_executes_globally_next_event(eng):
    hits = []
    eng.schedule(2.0, hits.append, "b", rank=1)
    eng.schedule(1.0, hits.append, "a", rank=3)
    assert eng.step() is True
    assert hits == ["a"]
    assert eng.step() is True
    assert eng.step() is False
    assert hits == ["a", "b"]


def test_reset(eng):
    eng.schedule(1.0, lambda: None, rank=1)
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
    eng.schedule_batch(1.0, [(print, ()), (print, ())], rank=1)
    eng.schedule(2.0, print, rank=2)
    assert eng.pending == 3


def test_schedule_batch_preserves_order(eng):
    hits = []
    eng.schedule(1.0, hits.append, "before", rank=0)
    eng.schedule_batch(1.0, [(hits.append, (i,)) for i in range(5)], rank=1)
    eng.schedule(1.0, hits.append, "after", rank=2)
    eng.run()
    assert hits == ["before", 0, 1, 2, 3, 4, "after"]


def test_schedule_batch_cancel_member(eng):
    hits = []
    evs = eng.schedule_batch(1.0, [(hits.append, (i,)) for i in range(4)])
    evs[2].cancel()
    eng.run()
    assert hits == [0, 1, 3]


def test_schedule_batch_max_events_resumes_mid_burst(eng):
    hits = []
    eng.schedule_batch(1.0, [(hits.append, (i,)) for i in range(6)], rank=1)
    eng.run(max_events=4)
    assert hits == [0, 1, 2, 3]
    eng.run()
    assert hits == [0, 1, 2, 3, 4, 5]


def test_exception_preserves_burst_tail(eng):
    hits = []

    def boom():
        raise RuntimeError("boom")

    eng.schedule_batch(
        1.0, [(hits.append, (0,)), (boom, ()), (hits.append, (2,))], rank=1
    )
    with pytest.raises(RuntimeError):
        eng.run()
    eng.run()
    assert hits == [0, 2]


def test_determinism_same_schedule_same_trace(eng):
    def build(e):
        hits = []
        for i in range(50):
            e.schedule((i * 7) % 5 * 0.25, hits.append, i, rank=i % 3)
        e.run()
        return hits

    fresh = type(eng)() if type(eng) is Engine else ShardedEngine(
        nshards=eng.nshards, lookahead=eng.lookahead)
    assert build(eng) == build(fresh)


# --------------------------------------------- sharded-specific


def test_rank_routes_to_shard():
    eng = ShardedEngine(nshards=4, lookahead=1.0)
    eng.schedule(1.0, lambda: None, rank=2)
    eng.schedule(1.0, lambda: None, rank=6)   # 6 % 4 == 2
    eng.schedule(1.0, lambda: None)           # unranked -> shard 0
    assert eng.shard_pending == [1, 0, 2, 0]
    assert eng.shard_scheduled == [1, 0, 2, 0]


def test_window_stats_accumulate():
    eng = ShardedEngine(nshards=2, lookahead=1.0)
    for i in range(8):
        eng.schedule(float(i) * 0.25, lambda: None, rank=i)
    eng.run()
    assert eng.windows_executed >= 1
    assert eng.max_batch >= 1
    assert eng.events_processed == 8


def test_events_inside_open_window_interleave_exactly():
    # An event scheduled during a window, with a timestamp inside that
    # window, must run in exact (time, seq) position -- not at the window
    # boundary.
    eng = ShardedEngine(nshards=2, lookahead=10.0)
    hits = []

    def first():
        hits.append("first")
        eng.schedule(1.0, hits.append, "injected", rank=1)

    eng.schedule(0.0, first, rank=0)
    eng.schedule(2.0, hits.append, "second", rank=0)
    eng.run()
    assert hits == ["first", "injected", "second"]


def test_bind_topology_via_cluster():
    cluster = Cluster(HAWK, 8, engine=ShardedEngine())
    eng = cluster.engine
    assert eng.nshards == 8
    assert eng.lookahead == HAWK.network.lookahead == HAWK.network.latency


def test_bind_topology_respects_explicit_shards():
    cluster = Cluster(HAWK, 8, engine=ShardedEngine(nshards=2, lookahead=5.0))
    assert cluster.engine.nshards == 2
    assert cluster.engine.lookahead == 5.0


def test_adaptive_window_grows_above_lookahead_floor():
    eng = ShardedEngine(nshards=2, lookahead=1e-9)
    for i in range(200):
        eng.schedule(float(i), lambda: None, rank=i)
    eng.run()
    # Tiny lookahead + sparse events: adaptation must have widened the
    # window well beyond one-event-per-window.
    assert eng.windows_executed < 200


def test_create_engine_kinds():
    assert ENGINE_KINDS == ("seq", "sharded")
    assert type(create_engine("seq")) is Engine
    sharded = create_engine("sharded", nranks=4)
    assert isinstance(sharded, ShardedEngine) and sharded.nshards == 4
    with pytest.raises(ValueError):
        create_engine("bogus")
    # The multiprocess kind was deleted, not aliased: it is unknown, and
    # the error lists what exists.
    with pytest.raises(ValueError, match=r"'mp'.*seq.*sharded"):
        create_engine("mp", nranks=2)
    with pytest.raises(ValueError, match=r"'mp'.*seq.*sharded"):
        Cluster.with_engine(HAWK, 2, "mp")


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
    assert "'mp'" in err and "sharded" in err and "Traceback" not in err


def test_shard_clocks_match_engine_clock():
    eng = ShardedEngine(nshards=3, lookahead=1.0)
    eng.schedule(2.0, lambda: None, rank=1)
    eng.run()
    assert eng.shard_clocks == [2.0, 2.0, 2.0]


def test_quiescent_shards_skip_windows():
    # At 16 ranks the tail of the schedule drains most shards early; the
    # retired ones drop out of the window scans and are counted.
    from repro.apps.floydwarshall import floyd_warshall_ttg
    from repro.bench.history import SeededBlockCyclic
    from repro.linalg import TiledMatrix
    from repro.runtime import ParsecBackend

    cluster = Cluster.with_engine(HAWK.with_workers(4), 16, engine="sharded")
    w = TiledMatrix(512, 128, SeededBlockCyclic.for_ranks(16, 0),
                    synthetic=True)
    floyd_warshall_ttg(w, ParsecBackend(cluster))
    assert cluster.engine.windows_skipped_quiescent > 0
