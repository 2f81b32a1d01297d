"""Race checks of the runtime sanitizer (RACE rules), on live executions.

Each test arms the sanitizer (``sanitize=True``, no telemetry unless
said) on a small graph whose tasks reach one tile by reference from
chosen ranks -- captured by a body, injected, invoked, or sent by
``cref``/``move`` -- and asserts which races the online happens-before
relation (per-rank vector clocks, joined at every delivery) reports at
the fence.
"""

import warnings

import pytest

from repro import core as ttg
from repro.core.exceptions import SanitizerError
from repro.linalg import MatrixTile
from repro.runtime import MadnessBackend, ParsecBackend
from repro.sim import Cluster, HAWK
from repro.telemetry.events import Telemetry


def _noop(key, *args):
    pass


def _tiles(name):
    return ttg.Edge(name, key_type=int, value_type=MatrixTile)


def _ints(name):
    return ttg.Edge(name, key_type=int, value_type=int)


def _on(rank):
    return lambda key: rank


def _execute(tts, nranks, drive, backend=ParsecBackend, telemetry=None,
             **armed):
    """Bind ``tts`` to a fresh backend with the sanitizer armed (collect
    mode unless ``strict=True``), run ``drive(ex)`` and fence."""
    armed = armed or {"sanitize": True}
    ex = ttg.TaskGraph(tts).executable(
        backend(Cluster(HAWK, nranks), telemetry=telemetry), **armed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        drive(ex)
        ex.fence()
    return ex


def _races(ex):
    return [f for f in ex.sanitizer.findings if f.rule.id.startswith("RACE")]


def _ids(findings):
    return [f.rule.id for f in findings]


def _writer(name, tile, keymap, after=None, **kw):
    """A template that writes ``tile``: it sends the tile by value to a
    sink on its own rank (which gets a clone) -- and then, given an
    ``after`` edge, one int on that."""
    out = _tiles(f"{name}.copy")

    def body(key, outs):
        outs.send(0, key, tile)
        if after is not None:
            outs.send(1, key, 1)

    tt = ttg.make_tt(body, [], [out] + ([after] if after else []), name=name,
                     keymap=keymap, **kw)
    sink = ttg.make_tt(_noop, [out], [], name=f"{name}.SINK", keymap=keymap)
    return tt, sink


# ------------------------------------------------------------ RACE001/002


def test_race001_unordered_cross_rank_write_read():
    tile = MatrixTile.zeros(2, 2)
    gen, sink = _writer("GEN", tile, _on(0))
    x = _tiles("x")
    r = ttg.make_tt(_noop, [x], [], name="R", keymap=_on(1))

    def drive(ex):
        ex.invoke(gen, 0)
        ex.inject(r, 0, 0, tile)

    findings = _races(_execute([gen, sink, r], 2, drive))
    assert _ids(findings) == ["RACE001"]
    assert "written by GEN[0] (rank 0)" in findings[0].message
    assert "read by R[0] (rank 1)" in findings[0].message
    assert findings[0].location == "data#1"


def test_no_race_when_dep_edge_orders_the_pair():
    tile = MatrixTile.zeros(2, 2)
    t, x = _tiles("t"), _tiles("x")
    gen = ttg.make_tt(lambda key, outs: outs.send(0, key, tile), [], [t],
                      name="GEN", keymap=_on(0))
    # R reads the tile only after GEN's message reached rank 1.
    r = ttg.make_tt(_noop, [t, x], [], name="R", keymap=_on(1))

    def drive(ex):
        ex.invoke(gen, 0)
        ex.inject(r, 1, 0, tile)

    assert _execute([gen, r], 2, drive).sanitizer.findings == []


def test_race002_two_unordered_writers():
    tile = MatrixTile.zeros(2, 2)
    w, sink = _writer("W", tile, lambda key: key)  # W[k] on rank k

    def drive(ex):
        ex.invoke(w, 0)
        ex.invoke(w, 1)

    findings = _races(_execute([w, sink], 2, drive))
    assert _ids(findings) == ["RACE002"]
    assert "written by W[0] (rank 0) and W[1] (rank 1)" in findings[0].message


def test_zero_copy_move_alias_counts_as_write():
    """W1 sends the tile zero-copy to C on its own rank and then tells R2
    on rank 1 to go: W1's own write is ordered before R2's read, C's is
    not -- a ``move`` hands C the buffer to write, a ``cref`` only to
    read.  The tile is live on both ranks either way."""
    for mode, want in (("move", ["RACE001", "RACE003"]),
                       ("cref", ["RACE003"])):
        tile = MatrixTile.zeros(2, 2)
        m, go, x = _tiles("m"), _ints("go"), _tiles("x")

        def w1_body(key, outs, mode=mode, tile=tile):
            outs.send(0, key, tile, mode=mode)
            outs.send(1, key, 1)

        w1 = ttg.make_tt(w1_body, [], [m, go], name="W1", keymap=_on(0))
        c = ttg.make_tt(_noop, [m], [], name="C", keymap=_on(0))
        r2 = ttg.make_tt(_noop, [go, x], [], name="R2", keymap=_on(1))

        def drive(ex, tile=tile):
            ex.invoke(w1, 0)
            ex.inject(r2, 1, 0, tile)

        findings = _races(_execute([w1, c, r2], 2, drive))
        assert _ids(findings) == want, mode
        if mode == "move":
            assert "written by C[0] (rank 0) and read by R2[0] (rank 1)" \
                in findings[0].message


def test_dep_destination_is_not_an_access():
    """A remote delivery hands the consumer a deserialized copy, a fresh
    buffer: a broadcast tree whose branches forward one tile by cref
    never reports its sibling branches as cross-rank races."""
    t, f = _tiles("t"), _tiles("f")

    def bcast(key, outs):
        tile = MatrixTile.zeros(2, 2)
        outs.broadcast_multi([(0, [0]), (1, [1])], tile, mode="cref")

    def lbcast(key, tile, outs):
        outs.send(0, 2, tile, mode="cref")

    root = ttg.make_tt(bcast, [], [t, f], name="BCAST", keymap=_on(0))
    local = ttg.make_tt(lbcast, [t], [f], name="LBCAST", keymap=_on(0))
    store = ttg.make_tt(_noop, [f], [], name="LSTORE", keymap=_on(1))
    ex = _execute([root, local, store], 2, lambda ex: ex.invoke(root, 0))
    assert ex.sanitizer.findings == []
    assert ex.task_counts == {"BCAST": 1, "LBCAST": 1, "LSTORE": 2}


# ---------------------------------------------------------------- RACE003


def test_race003_token_observed_on_two_ranks_even_if_ordered():
    tile = MatrixTile.zeros(2, 2)
    go, x = _ints("go"), _tiles("x")
    a = ttg.make_tt(lambda key, tile, outs: outs.send(0, key, 1), [x], [go],
                    name="A", keymap=_on(0))
    b = ttg.make_tt(_noop, [go, x], [], name="B", keymap=_on(1))

    def drive(ex):
        ex.invoke(a, 0, [tile])       # A reads the tile on rank 0 ...
        ex.inject(b, 1, 0, tile)      # ... B, after A, on rank 1

    findings = _races(_execute([a, b], 2, drive))
    assert _ids(findings) == ["RACE003"]
    assert "ranks [0, 1]" in findings[0].message


def test_race003_counts_zero_copy_alias_instants():
    """A delivery observes the buffer on its rank, even if the task it
    feeds never runs."""
    tile = MatrixTile.zeros(2, 2)
    x, y = _tiles("x"), _tiles("y")
    a = ttg.make_tt(_noop, [x], [], name="A", keymap=_on(0))
    join = ttg.make_tt(_noop, [x, y], [], name="JOIN", keymap=_on(1))

    def drive(ex):
        ex.invoke(a, 0, [tile])
        ex.inject(join, 0, 0, tile)   # JOIN's other input never arrives

    ex = _execute([a, join], 2, drive)
    assert _ids(_races(ex)) == ["RACE003"]
    assert ex.sanitizer.findings_for("SAN006")


# ---------------------------------------------------------------- RACE004


def _cref_chain(mutate_in_gen=False):
    """GEN shares a tile by cref; C1 (a long task) mutates it and forwards
    the same object, so C2 observes a stale share -- the unordered
    tile-write fixture.  ``mutate_in_gen`` makes GEN itself the writer."""
    e1, e2 = _tiles("t1"), _tiles("t2")

    def gen(key, outs):
        tile = MatrixTile.zeros(2, 2)
        outs.send(0, 0, tile, mode="cref")
        if mutate_in_gen:
            tile.data[0, 0] = 7.0       # the owner's own post-send write

    def c1(key, tile, outs):
        if not mutate_in_gen:
            tile.data[0, 0] = 42.0      # write outside the owner's span
        outs.send(0, 0, tile, mode="cref")

    gen_tt = ttg.make_tt(gen, [], [e1], name="GEN", keymap=_on(0))
    c1_tt = ttg.make_tt(c1, [e1], [e2], name="C1", keymap=_on(0),
                        cost=lambda key, tile: (1.0e9, 0.0))
    c2_tt = ttg.make_tt(_noop, [e2], [], name="C2", keymap=_on(0))
    return [gen_tt, c1_tt, c2_tt], gen_tt


def test_race004_mutation_after_sharer_span_is_strict():
    # The sharer's own post-send mutation is seen at its span's end: a
    # cref fault (SAN003), not a write by someone else.
    tts, gen = _cref_chain(mutate_in_gen=True)
    ex = _execute(tts, 1, lambda ex: ex.invoke(gen, 0))
    assert _ids(ex.sanitizer.findings) == ["SAN003"]
    tts, gen = _cref_chain()
    ex = _execute(tts, 1, lambda ex: ex.invoke(gen, 0))
    assert _ids(ex.sanitizer.findings) == ["SAN003", "RACE004"]
    assert ex.sanitizer.findings[1].location == "C2[0].in0"


def test_race004_ignores_unknown_sharer():
    # A cref send made outside any task body has no owning span.
    tile = MatrixTile.zeros(2, 2)
    e = _tiles("e")
    gen = ttg.make_tt(_noop, [], [e], name="GEN", keymap=_on(0))
    sink = ttg.make_tt(_noop, [e], [], name="SINK", keymap=_on(0))

    def drive(ex):
        ex.send_from(0, gen.outputs[0], 0, tile, mode="cref")
        tile.data[0, 0] = 1.0

    ex = _execute([gen, sink], 1, drive)
    assert _ids(ex.sanitizer.findings) == ["SAN003"]
    assert "shared via cref by <external>" in ex.sanitizer.findings[0].message


# ----------------------------------------------------------- happens-before


def test_same_rank_accesses_never_race():
    tile = MatrixTile.zeros(2, 2)
    w, sink = _writer("W", tile, _on(0))
    x = _tiles("x")
    r = ttg.make_tt(_noop, [x], [], name="R", keymap=_on(0))

    def drive(ex):
        ex.invoke(w, 0)
        ex.inject(r, 0, 0, tile)
        ex.invoke(r, 1, [tile])

    assert _execute([w, sink, r], 1, drive).sanitizer.findings == []


def test_findings_are_deduplicated_and_stably_ordered():
    def run():
        tile = MatrixTile.zeros(2, 2)
        t, x = _tiles("t"), _tiles("x")

        def gen_body(key, tile, outs):
            outs.broadcast(0, [0, 1], tile)  # two writes of one buffer

        gen = ttg.make_tt(gen_body, [x], [t], name="GEN", keymap=_on(0))
        sink = ttg.make_tt(_noop, [t], [], name="SINK", keymap=_on(0))
        r = ttg.make_tt(_noop, [x], [], name="R", keymap=_on(1))

        def drive(ex):
            ex.invoke(gen, 0, [tile])
            ex.inject(r, 0, 0, tile)

        return _execute([gen, sink, r], 2, drive)

    ex = run()
    findings = _races(ex)
    assert _ids(findings) == ["RACE001", "RACE003"]
    assert [str(f) for f in _races(run())] == [str(f) for f in findings]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ex.fence()                    # a second fence repeats nothing
    assert _races(ex) == findings


def test_empty_trace_is_clean():
    sink = ttg.make_tt(_noop, [_tiles("x")], [], name="SINK", keymap=_on(0))
    for telemetry in (None, Telemetry(nranks=2, capacity=None)):
        ex = _execute([sink], 2, lambda ex: None, telemetry=telemetry)
        assert ex.sanitizer.findings == []


def test_vector_clocks_transitive_across_ranks():
    """A on rank 0 writes the tile; C on rank 2 reads it after B on rank 1
    heard from A and told C.  Without B's relay C is concurrent with A."""
    for relay, want in ((True, []), (False, ["RACE001"])):
        tile = MatrixTile.zeros(2, 2)
        ab, bc, x = _ints("ab"), _ints("bc"), _tiles("x")
        a, a_sink = _writer("A", tile, _on(0), after=ab)

        def b_body(key, v, outs, relay=relay):
            if relay:
                outs.send(0, key, v)

        b = ttg.make_tt(b_body, [ab], [bc], name="B", keymap=_on(1))
        c = ttg.make_tt(_noop, [bc, x], [], name="C", keymap=_on(2))

        def drive(ex, tile=tile, relay=relay):
            ex.invoke(a, 0)
            ex.inject(c, 1, 0, tile)
            if not relay:
                ex.inject(c, 0, 0, 1)

        findings = _races(_execute([a, a_sink, b, c], 3, drive))
        assert _ids(findings) == want, relay
        if not relay:
            assert "written by A[0] (rank 0) and read by C[0] (rank 2)" \
                in findings[0].message


def test_program_order_chains_same_rank_spans():
    """GEN writes the tile and LATER, on the same rank, tells R on rank 1
    to read it.  Program order is the order the bodies run in: a short
    GEN finishes first and is ordered before R; a long one is not."""
    for gen_flops, want in ((1.0e3, []), (1.0e10, ["RACE001"])):
        tile = MatrixTile.zeros(2, 2)
        go, x = _ints("go"), _tiles("x")
        gen, sink = _writer("GEN", tile, _on(0),
                            cost=lambda key, f=gen_flops: (f, 0.0))
        later = ttg.make_tt(lambda key, outs: outs.send(0, key, 1), [], [go],
                            name="LATER", keymap=_on(0),
                            cost=lambda key: (1.0e8, 0.0))
        r = ttg.make_tt(_noop, [go, x], [], name="R", keymap=_on(1))

        def drive(ex, tile=tile):
            ex.invoke(gen, 0)
            ex.invoke(later, 0)
            ex.inject(r, 1, 0, tile)

        assert _ids(_races(_execute([gen, sink, later, r], 2, drive))) \
            == want, gen_flops


# --------------------------------------------------------- live executions


def test_clean_message_passing_run_has_no_races():
    """Tiles sent by value across ranks deserialize to fresh buffers, so
    a well-formed graph has no findings, on either backend."""
    e = _tiles("t")

    def gen(key, outs):
        for k in range(4):
            outs.send(0, k, MatrixTile.zeros(2, 2))

    def sink(key, tile, outs):
        tile.data[0, 0] += 1.0  # local mutation of a private copy

    gen_tt = ttg.make_tt(gen, [], [e], name="GEN", keymap=_on(0))
    sink_tt = ttg.make_tt(sink, [e], [], name="SINK", keymap=lambda k: k % 2)
    for backend in (ParsecBackend, MadnessBackend):
        ex = _execute([gen_tt, sink_tt], 2, lambda ex: ex.invoke(gen_tt, 0),
                      backend=backend)
        assert ex.sanitizer.findings == [], backend.__name__


def test_cref_mutation_chain_triggers_race004():
    tts, gen = _cref_chain()
    ex = ttg.TaskGraph(tts).executable(
        ParsecBackend(Cluster(HAWK, 1)), sanitize=True)
    ex.invoke(gen, 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ex.fence()
    finding = ex.sanitizer.findings_for("RACE004")[0]
    assert "owned by GEN[0]" in finding.message
    assert any("TTG-San: RACE004" in str(w.message) for w in caught)
    # The underlying cref fault is on record too.
    assert ex.sanitizer.findings_for("SAN003")
    # MadnessBackend copies on cref: the same program shares nothing.
    tts, gen = _cref_chain()
    ex = _execute(tts, 1, lambda ex: ex.invoke(gen, 0), backend=MadnessBackend)
    assert ex.sanitizer.findings == []


def _double_inject(nranks=2):
    """One tile injected into SINK[0] (rank 0) and SINK[1] (rank 1)."""
    tile = MatrixTile.zeros(2, 2)
    sink = ttg.make_tt(_noop, [_tiles("t")], [], name="SINK",
                       keymap=lambda k: k % nranks)

    def drive(ex):
        for k in range(2):
            ex.inject(sink, 0, k, tile)  # one buffer live on both ranks

    return [sink], drive


def test_strict_fence_raises_on_races():
    tts, drive = _double_inject()
    with pytest.raises(SanitizerError) as exc:
        _execute(tts, 2, drive, strict=True)
    assert exc.value.rule == "RACE003"


def test_unarmed_run_skips_race_detector():
    """``sanitize`` alone arms the race checks: telemetry neither arms
    them nor is needed."""
    for sanitize in (False, True):
        for telemetry in (None, Telemetry(nranks=2, capacity=None)):
            tts, drive = _double_inject()
            ex = ttg.TaskGraph(tts).executable(
                ParsecBackend(Cluster(HAWK, 2), telemetry=telemetry),
                sanitize=sanitize)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                drive(ex)
                ex.fence()
            if sanitize:
                assert _ids(ex.sanitizer.findings) == ["RACE003"]
            else:
                assert ex.sanitizer is None
