"""Tests for the happens-before race detector (RACE rules).

Unit tests drive :func:`detect_races` over hand-built event buses (full
control of spans, dep edges and timestamps); integration tests record a
real execution through the runtime's telemetry hooks and assert that
clean message-passing graphs stay race-free while cref aliasing abuse is
caught.
"""

import warnings

import pytest

from repro import core as ttg
from repro.analysis.race import HappensBefore, detect_races
from repro.runtime import ParsecBackend
from repro.sim import Cluster, HAWK
from repro.telemetry.analyze import dep_edges, program_order_edges, task_nodes
from repro.telemetry.events import EventBus, TID_RT, Telemetry

# ------------------------------------------------------- synthetic traces


def _bus(nranks=2):
    return EventBus(nranks=nranks, capacity=None)


def _task(bus, template, key, rank, start, end, data=None):
    args = {"template": template, "key": key}
    if data:
        args["data"] = list(data)
    bus.complete(template, rank, 0, start, end, cat="task", args=args)


def _instant(bus, name, cat, rank, ts, **args):
    bus.clock = lambda t=ts: t
    bus.instant(name, rank, TID_RT, cat=cat, **args)


def _dep(bus, rank, ts, src, dst, tok=None, mode="value"):
    args = {"src": src, "dst": dst, "edge": "e"}
    if tok is not None:
        args.update(obj=tok, mode=mode)
    _instant(bus, "dep", "dep", rank, ts, **args)


def _ids(findings):
    return [f.rule.id for f in findings]


def test_race001_unordered_cross_rank_write_read():
    bus = _bus()
    _task(bus, "GEN", "0", 0, 0.0, 1.0)
    # Tokenized send whose consumer never executed: registers the write
    # without creating a happens-before edge to the reader below.
    _dep(bus, 0, 1.0, "GEN[0]", "LOST[9]", tok=1)
    _task(bus, "R", "0", 1, 0.5, 1.5, data=[1])
    findings = detect_races(bus)
    assert _ids(findings) == ["RACE001"]
    assert "GEN[0]" in findings[0].message
    assert "R[0]" in findings[0].message
    assert findings[0].location == "data#1"


def test_no_race_when_dep_edge_orders_the_pair():
    bus = _bus()
    _task(bus, "GEN", "0", 0, 0.0, 1.0)
    _task(bus, "R", "0", 1, 2.0, 3.0, data=[1])
    _dep(bus, 0, 1.0, "GEN[0]", "R[0]", tok=1)
    assert detect_races(bus) == []


def test_race002_two_unordered_writers():
    bus = _bus()
    _task(bus, "W1", "0", 0, 0.0, 1.0)
    _task(bus, "W2", "0", 1, 0.0, 1.0)
    _dep(bus, 0, 1.0, "W1[0]", "LOST[8]", tok=5)
    _dep(bus, 1, 1.0, "W2[0]", "LOST[9]", tok=5)
    findings = detect_races(bus)
    assert _ids(findings) == ["RACE002"]
    assert "W1[0]" in findings[0].message and "W2[0]" in findings[0].message


def test_zero_copy_move_alias_counts_as_write():
    bus = _bus()
    _task(bus, "W1", "0", 0, 0.0, 1.0)
    _task(bus, "C", "0", 0, 1.5, 2.5)
    _task(bus, "R2", "0", 1, 2.0, 3.0, data=[5])
    # Zero-copy ownership transfer W1 -> C on rank 0: C now writes the
    # buffer, concurrently with the rank-1 reader R2 (and the buffer is
    # live on both ranks: RACE003).
    _instant(bus, "alias", "alias", 0, 1.0,
             src="W1[0]", dst="C[0]", obj=5, mode="move")
    findings = detect_races(bus)
    assert _ids(findings) == ["RACE001", "RACE003"]
    assert "written by C[0]" in findings[0].message


def test_dep_destination_is_not_an_access():
    # A delivery may hand the consumer a serialized or cloned copy, so
    # the dep instant's dst must NOT count as touching the sender's
    # buffer -- otherwise every broadcast tree reports its sibling
    # branches as cross-rank races (regression test for exactly that).
    bus = _bus()
    _task(bus, "BCAST", "0", 0, 0.0, 1.0)
    _task(bus, "LSTORE", "(1,)", 1, 2.0, 3.0)
    _task(bus, "LBCAST", "(0,)", 0, 1.5, 2.5)
    # One buffer fanned out to a remote sibling and re-sent locally.
    _dep(bus, 0, 1.0, "BCAST[0]", "LSTORE[(1,)]", tok=9, mode="cref")
    _dep(bus, 0, 2.0, "LBCAST[(0,)]", "LOST[9]", tok=9, mode="cref")
    assert detect_races(bus) == []


def test_race003_token_observed_on_two_ranks_even_if_ordered():
    bus = _bus()
    _task(bus, "A", "0", 0, 0.0, 1.0, data=[7])
    _task(bus, "B", "0", 1, 2.0, 3.0, data=[7])
    _dep(bus, 0, 1.0, "A[0]", "B[0]")  # ordered -- still aliased
    findings = detect_races(bus)
    assert _ids(findings) == ["RACE003"]
    assert "ranks [0, 1]" in findings[0].message


def test_race003_counts_zero_copy_alias_instants():
    bus = _bus()
    _task(bus, "A", "0", 0, 0.0, 1.0, data=[7])
    _instant(bus, "alias", "alias", 1, 2.0,
             src="A[0]", dst="B[0]", obj=7, mode="cref")
    assert _ids(detect_races(bus)) == ["RACE003"]


def test_race004_mutation_after_sharer_span_is_strict():
    bus = _bus()
    _task(bus, "GEN", "0", 0, 0.0, 1.0)
    # _record_task stamps the span before the body runs, so the sharer's
    # own post-send mutation lands exactly at span.end: not a race.
    _instant(bus, "SAN003", "san", 0, 1.0, location="C[0].in",
             sharer="GEN[0]")
    assert detect_races(bus) == []
    _instant(bus, "SAN003", "san", 0, 2.0, location="C[1].in",
             sharer="GEN[0]")
    findings = detect_races(bus)
    assert _ids(findings) == ["RACE004"]
    assert "GEN[0]" in findings[0].message
    assert findings[0].location == "C[1].in"


def test_race004_ignores_unknown_sharer():
    bus = _bus()
    _task(bus, "GEN", "0", 0, 0.0, 1.0)
    _instant(bus, "SAN003", "san", 0, 5.0, location="x", sharer="GHOST[0]")
    _instant(bus, "SAN003", "san", 0, 5.0, location="y")
    assert detect_races(bus) == []


def test_same_rank_accesses_never_race():
    bus = _bus(nranks=1)
    _task(bus, "W", "0", 0, 0.0, 1.0)
    _task(bus, "R", "0", 0, 0.5, 1.5, data=[3])
    _dep(bus, 0, 1.0, "W[0]", "LOST[9]", tok=3)
    assert detect_races(bus) == []


def test_ignore_filters_rules():
    bus = _bus()
    _task(bus, "GEN", "0", 0, 0.0, 1.0)
    _dep(bus, 0, 1.0, "GEN[0]", "LOST[9]", tok=1)
    _task(bus, "R", "0", 1, 0.5, 1.5, data=[1])
    assert detect_races(bus, ignore=("RACE001",)) == []


def test_findings_are_deduplicated_and_stably_ordered():
    bus = _bus()
    _task(bus, "GEN", "0", 0, 0.0, 1.0, data=[1])
    _dep(bus, 0, 1.0, "GEN[0]", "LOST[9]", tok=1)
    _dep(bus, 0, 1.0, "GEN[0]", "LOST[9]", tok=1)  # duplicate instant
    _task(bus, "R", "0", 1, 0.5, 1.5, data=[1])
    findings = detect_races(bus)
    assert _ids(findings) == ["RACE001", "RACE003"]
    assert detect_races(bus) == findings  # deterministic replay


def test_empty_trace_is_clean():
    assert detect_races(_bus()) == []
    assert detect_races(Telemetry(nranks=2, capacity=None)) == []


# ------------------------------------------------------ HappensBefore core


def test_vector_clocks_transitive_across_ranks():
    bus = _bus(nranks=3)
    _task(bus, "A", "0", 0, 0.0, 1.0)
    _task(bus, "B", "0", 1, 2.0, 3.0)
    _task(bus, "C", "0", 2, 4.0, 5.0)
    _dep(bus, 0, 1.0, "A[0]", "B[0]")
    _dep(bus, 1, 3.0, "B[0]", "C[0]")
    nodes = task_nodes(bus)
    hb = HappensBefore(nodes, dep_edges(bus) + program_order_edges(nodes))
    assert hb.hb("A[0]", "B[0]")
    assert hb.hb("A[0]", "C[0]")  # transitively, through rank 1
    assert not hb.hb("C[0]", "A[0]")
    assert hb.hb("A[0]", "A[0]")


def test_program_order_chains_same_rank_spans():
    bus = _bus(nranks=2)
    _task(bus, "A", "0", 0, 0.0, 1.0)
    _task(bus, "A", "1", 0, 2.0, 3.0)
    _task(bus, "B", "0", 1, 0.0, 1.0)
    nodes = task_nodes(bus)
    hb = HappensBefore(nodes, dep_edges(bus) + program_order_edges(nodes))
    assert hb.hb("A[0]", "A[1]")          # same shard executes in order
    assert hb.concurrent("A[0]", "B[0]")  # nothing links the ranks


# ------------------------------------------------------------- data tokens


def test_data_token_tracks_buffers_not_scalars():
    import numpy as np

    tel = Telemetry(nranks=1)
    for scalar in (None, 1, 1.5, "s", b"b", True, 2 + 3j):
        assert tel.data_token(scalar) is None
    assert tel.data_token({"no": "buffer protocol"}) is None

    a, b = np.zeros(4), np.zeros(4)
    ta = tel.data_token(a)
    assert ta == tel.data_token(a)      # stable per object
    assert ta != tel.data_token(b)      # distinct per object
    from repro.linalg import MatrixTile

    assert tel.data_token(MatrixTile.zeros(2, 2)) not in (None, ta)


# --------------------------------------------------------- live executions


def _telemetry_backend(nranks):
    tel = Telemetry(nranks=nranks, capacity=None)
    return ParsecBackend(Cluster(HAWK, nranks), telemetry=tel), tel


def test_clean_message_passing_run_has_no_races():
    """Tiles sent by value across ranks deserialize to fresh buffers, so
    a well-formed graph records zero RACE findings."""
    from repro.linalg import MatrixTile

    e = ttg.Edge("t", key_type=int, value_type=MatrixTile)

    def gen(key, outs):
        for k in range(4):
            outs.send(0, k, MatrixTile.zeros(2, 2))

    def sink(key, tile, outs):
        tile.data[0, 0] += 1.0  # local mutation of a private copy

    gen_tt = ttg.make_tt(gen, [], [e], name="GEN", keymap=lambda k: 0)
    sink_tt = ttg.make_tt(sink, [e], [], name="SINK", keymap=lambda k: k % 2)
    backend, tel = _telemetry_backend(2)
    ex = ttg.TaskGraph([gen_tt, sink_tt]).executable(backend, sanitize=True)
    ex.invoke(gen_tt, 0)
    ex.fence()
    assert ex.race_findings == []
    # The run did record tokenized dependency traffic.
    assert any("obj" in ev.args for ev in tel.bus.instants(cat="dep"))


def _cref_chain():
    """GEN shares a tile by cref; the consumer mutates it and forwards
    the same object, so the second consumer observes a stale share --
    the acceptance-criteria unordered-tile-write fixture."""
    from repro.linalg import MatrixTile

    e1 = ttg.Edge("t1", key_type=int, value_type=MatrixTile)
    e2 = ttg.Edge("t2", key_type=int, value_type=MatrixTile)

    def gen(key, outs):
        outs.send(0, 0, MatrixTile.zeros(2, 2), mode="cref")

    def c1(key, tile, outs):
        tile.data[0, 0] = 42.0          # write outside the owner's span
        outs.send(0, 0, tile, mode="cref")

    gen_tt = ttg.make_tt(gen, [], [e1], name="GEN", keymap=lambda k: 0)
    c1_tt = ttg.make_tt(c1, [e1], [e2], name="C1", keymap=lambda k: 0,
                        cost=lambda key, tile: (1.0e9, 0.0))
    c2_tt = ttg.make_tt(lambda key, tile, outs: None, [e2], [],
                        name="C2", keymap=lambda k: 0)
    return ttg.TaskGraph([gen_tt, c1_tt, c2_tt]), gen_tt


def test_cref_mutation_chain_triggers_race004():
    graph, gen_tt = _cref_chain()
    backend, tel = _telemetry_backend(1)
    ex = graph.executable(backend, sanitize=True)
    ex.invoke(gen_tt, 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ex.fence()
    assert any(f.rule.id == "RACE004" for f in ex.race_findings)
    finding = next(f for f in ex.race_findings if f.rule.id == "RACE004")
    assert "GEN[0]" in finding.message
    assert any("TTG race: RACE004" in str(w.message) for w in caught)
    # The underlying sanitizer fault is on record too.
    assert any(f.rule.id == "SAN003" for f in ex.sanitizer.findings)


def test_strict_fence_raises_on_races():
    from repro.core.exceptions import SanitizerError

    graph, gen_tt = _cref_chain()
    backend, _ = _telemetry_backend(1)
    # The sanitizer must run (RACE004 consumes its SAN003 instants) but
    # in collect mode, so the raise below comes from the fence-time race
    # detector alone.
    ex = graph.executable(backend, sanitize=True)
    ex.strict = True
    ex.invoke(gen_tt, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SanitizerError) as exc:
            ex.fence()
    assert str(exc.value.rule).startswith("RACE")


def test_unarmed_run_skips_race_detector():
    """Telemetry alone does not arm the fence-time detector: one tile
    injected on two ranks is a race the recorded stream shows offline,
    yet a fence without ``sanitize``/``strict`` leaves no findings."""
    from repro.linalg import MatrixTile

    tile = MatrixTile.zeros(2, 2)
    e = ttg.Edge("t", key_type=int, value_type=MatrixTile)
    sink_tt = ttg.make_tt(lambda key, tile, outs: None, [e], [],
                          name="SINK", keymap=lambda k: k % 2)
    for sanitize in (False, True):
        backend, tel = _telemetry_backend(2)
        ex = ttg.TaskGraph([sink_tt]).executable(backend, sanitize=sanitize)
        for k in range(2):
            ex.inject(sink_tt, 0, k, tile)  # one buffer live on both ranks
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ex.fence()
        assert _ids(detect_races(tel)) == ["RACE003"]
        assert _ids(ex.race_findings) == (["RACE003"] if sanitize else [])


def test_round_trip_through_jsonl_preserves_race_findings(tmp_path):
    from repro.telemetry.export import read_jsonl, write_jsonl

    bus = _bus()
    _task(bus, "GEN", "0", 0, 0.0, 1.0)
    _dep(bus, 0, 1.0, "GEN[0]", "LOST[9]", tok=1)
    _task(bus, "R", "0", 1, 0.5, 1.5, data=[1])
    direct = detect_races(bus)
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(path, bus)
    replayed = detect_races(read_jsonl(path))
    assert [str(f) for f in replayed] == [str(f) for f in direct]
    assert _ids(replayed) == ["RACE001"]
