"""Tests for TaskGraph/Executable: delivery, broadcast, streams, errors."""

import pytest

from repro import core as ttg
from repro.core.exceptions import (
    DeliveryError,
    GraphConstructionError,
    StreamError,
    TypeMismatchError,
)
from repro.runtime import MadnessBackend, ParsecBackend
from repro.runtime.base import BackendConfig
from repro.sim.cluster import Cluster, HAWK


def backend(nnodes=4, **cfg):
    config = BackendConfig(**cfg) if cfg else None
    return ParsecBackend(Cluster(HAWK, nnodes), config=config)


def test_two_stage_pipeline():
    e = ttg.Edge("a2b", key_type=int, value_type=int)
    got = {}

    def a(key, outs):
        outs.send(0, key + 100, key * 2)

    def b(key, v, outs):
        got[key] = v

    A = ttg.make_tt(a, [], [e], name="A", keymap=lambda k: k % 4)
    B = ttg.make_tt(b, [e], [], name="B", keymap=lambda k: k % 4)
    ex = ttg.TaskGraph([A, B]).executable(backend())
    for k in range(8):
        ex.invoke(A, k)
    ex.fence()
    assert got == {k + 100: k * 2 for k in range(8)}


def test_task_fires_once_all_inputs_arrive():
    e1 = ttg.Edge("x")
    e2 = ttg.Edge("y")
    fired = []

    def src(key, outs):
        outs.send(0, 0, "first")

    def src2(key, outs):
        outs.send(0, 0, "second")

    def sink(key, a, b, outs):
        fired.append((a, b))

    S1 = ttg.make_tt(src, [], [e1], keymap=lambda k: 0)
    S2 = ttg.make_tt(src2, [], [e2], keymap=lambda k: 1)
    K = ttg.make_tt(sink, [e1, e2], [], keymap=lambda k: 2)
    ex = ttg.TaskGraph([S1, S2, K]).executable(backend())
    ex.invoke(S1, 0)
    ex.invoke(S2, 0)
    ex.fence()
    assert fired == [("first", "second")]


def test_duplicate_input_raises():
    e = ttg.Edge("dup")
    never = ttg.Edge("never")

    def src(key, outs):
        outs.send(0, 7, 1)
        outs.send(0, 7, 2)  # same key twice into a non-streaming terminal

    # The sink has a second input that never arrives, so the instance is
    # still pending when the duplicate lands (a detectable program error;
    # re-using a task ID after the task ran is undefined, as in TTG).
    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    K = ttg.make_tt(lambda key, v, w, outs: None, [e, never], [], keymap=lambda k: 0)
    ex = ttg.TaskGraph([S, K]).executable(backend(1))
    ex.invoke(S, 0)
    with pytest.raises(DeliveryError):
        ex.fence()


def test_send_on_unconnected_terminal_raises():
    e_in = ttg.Edge("in")
    dangling = ttg.Edge("dangling")

    def body(key, v, outs):
        outs.send(0, key, v)

    T = ttg.make_tt(body, [e_in], [dangling], keymap=lambda k: 0)
    ex = ttg.TaskGraph([T]).executable(backend(1))
    ex.invoke(T, 0, [1])
    with pytest.raises(DeliveryError):
        ex.fence()


def test_invoke_arity_checked():
    T = ttg.make_tt(lambda key, a, b, outs: None, [ttg.Edge(), ttg.Edge()], [])
    ex = ttg.TaskGraph([T]).executable(backend(1))
    with pytest.raises(DeliveryError):
        ex.invoke(T, 0, [1])  # needs 2 args


def test_invoke_foreign_tt_rejected():
    T = ttg.make_tt(lambda key, outs: None, [], [])
    other = ttg.make_tt(lambda key, outs: None, [], [])
    ex = ttg.TaskGraph([T]).executable(backend(1))
    with pytest.raises(DeliveryError):
        ex.invoke(other, 0)


def test_fan_out_one_edge_two_consumers():
    e = ttg.Edge("fan")
    got = []

    def src(key, outs):
        outs.send(0, 1, "v")

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    C1 = ttg.make_tt(lambda k, v, outs: got.append(("c1", v)), [e], [], keymap=lambda k: 1)
    C2 = ttg.make_tt(lambda k, v, outs: got.append(("c2", v)), [e], [], keymap=lambda k: 2)
    ex = ttg.TaskGraph([S, C1, C2]).executable(backend())
    ex.invoke(S, 0)
    ex.fence()
    assert sorted(got) == [("c1", "v"), ("c2", "v")]


def test_optimized_broadcast_dedups_payloads():
    e = ttg.Edge("b")
    got = []

    def src(key, outs):
        outs.broadcast(0, list(range(8)), "payload")

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, v, outs: got.append(k), [e], [], keymap=lambda k: k % 4)
    be = backend(4)
    ex = ttg.TaskGraph([S, C]).executable(be)
    ex.invoke(S, 0)
    ex.fence()
    assert sorted(got) == list(range(8))
    # 8 keys over 4 ranks; rank 0 local => 3 remote payloads only.
    assert be.stats.broadcast_payloads_sent == 3
    assert be.stats.broadcast_keys_covered == 8


def test_naive_broadcast_sends_per_key():
    e = ttg.Edge("b")
    got = []

    def src(key, outs):
        outs.broadcast(0, list(range(8)), "payload")

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, v, outs: got.append(k), [e], [], keymap=lambda k: k % 4)
    be = backend(4, broadcast="naive")
    ex = ttg.TaskGraph([S, C]).executable(be)
    ex.invoke(S, 0)
    ex.fence()
    assert sorted(got) == list(range(8))
    assert be.stats.broadcast_payloads_sent == 0  # per-key path
    assert be.stats.remote_messages >= 6


def test_multi_terminal_broadcast_single_payload_per_rank():
    e1, e2 = ttg.Edge("t1"), ttg.Edge("t2")
    got = []

    def src(key, outs):
        outs.broadcast_multi([(0, [1, 2]), (1, [3])], "data")

    S = ttg.make_tt(src, [], [e1, e2], keymap=lambda k: 0)
    C1 = ttg.make_tt(lambda k, v, outs: got.append((1, k)), [e1], [], keymap=lambda k: 1)
    C2 = ttg.make_tt(lambda k, v, outs: got.append((2, k)), [e2], [], keymap=lambda k: 1)
    be = backend(2)
    ex = ttg.TaskGraph([S, C1, C2]).executable(be)
    ex.invoke(S, 0)
    ex.fence()
    assert sorted(got) == [(1, 1), (1, 2), (2, 3)]
    assert be.stats.broadcast_payloads_sent == 1  # all targets on rank 1


def test_control_broadcast_void_value():
    e = ttg.Edge("ctl")
    got = []

    def src(key, outs):
        outs.broadcast(0, [0, 1, 2, 3])

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, v, outs: got.append((k, v)), [e], [], keymap=lambda k: k)
    ex = ttg.TaskGraph([S, C]).executable(backend(4))
    ex.invoke(S, 0)
    ex.fence()
    assert sorted(got) == [(0, None), (1, None), (2, None), (3, None)]


def test_streaming_static_size():
    e = ttg.Edge("s")
    got = {}

    def src(key, outs):
        for i in range(5):
            outs.send(0, "acc", i)

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, total, outs: got.__setitem__(k, total), [e], [],
                    keymap=lambda k: 0)
    C.set_input_reducer(0, lambda a, b: a + b, size=5)
    ex = ttg.TaskGraph([S, C]).executable(backend(2))
    ex.invoke(S, 0)
    ex.fence()
    assert got == {"acc": 10}


def test_streaming_overflow_raises():
    e = ttg.Edge("s")
    never = ttg.Edge("never")

    def src(key, outs):
        for i in range(3):
            outs.send(0, "k", i)

    # A second never-satisfied input keeps the instance pending so the
    # third message overflows the bounded stream detectably.
    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, v, w, outs: None, [e, never], [], keymap=lambda k: 0)
    C.set_input_reducer(0, lambda a, b: a + b, size=2)
    ex = ttg.TaskGraph([S, C]).executable(backend(1))
    ex.invoke(S, 0)
    with pytest.raises(StreamError):
        ex.fence()


def test_streaming_dynamic_size_before_data():
    e = ttg.Edge("s")
    got = {}
    C = ttg.make_tt(lambda k, v, outs: got.__setitem__(k, v), [e], [],
                    keymap=lambda k: 0)
    C.set_input_reducer(0, lambda a, b: a + b)

    def src(key, outs):
        outs.send(0, "k", 1)
        outs.send(0, "k", 2)

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    ex = ttg.TaskGraph([S, C]).executable(backend(1))
    ex.set_argstream_size(C, 0, "k", 2)
    ex.invoke(S, 0)
    ex.fence()
    assert got == {"k": 3}


def test_streaming_size_zero_fires_immediately():
    e = ttg.Edge("s")
    got = []
    C = ttg.make_tt(lambda k, v, outs: got.append((k, v)), [e], [],
                    keymap=lambda k: 0)
    C.set_input_reducer(0, lambda a, b: a)
    ex = ttg.TaskGraph([C]).executable(backend(1))
    ex.set_argstream_size(C, 0, "k", 0)
    ex.fence()
    assert got == [("k", None)]


def test_streaming_conflicting_sizes():
    e = ttg.Edge("s")
    C = ttg.make_tt(lambda k, v, outs: None, [e], [], keymap=lambda k: 0)
    C.set_input_reducer(0, lambda a, b: a)
    ex = ttg.TaskGraph([C]).executable(backend(1))
    ex.set_argstream_size(C, 0, "k", 3)
    with pytest.raises(StreamError):
        ex.set_argstream_size(C, 0, "k", 4)


def test_set_size_on_non_streaming_terminal():
    e = ttg.Edge("s")
    C = ttg.make_tt(lambda k, v, outs: None, [e], [], keymap=lambda k: 0)
    ex = ttg.TaskGraph([C]).executable(backend(1))
    with pytest.raises(StreamError):
        ex.set_argstream_size(C, 0, "k", 3)


def test_stream_finalize_via_output_terminal():
    data = ttg.Edge("data")
    got = {}
    C = ttg.make_tt(lambda k, v, outs: got.__setitem__(k, v), [data], [],
                    keymap=lambda k: 0)
    C.set_input_reducer(0, lambda a, b: a + b)

    def src(key, outs):
        outs.send(0, "k", 10)
        outs.send(0, "k", 20)
        outs.finalize(0, "k")

    S = ttg.make_tt(src, [], [data], keymap=lambda k: 1)
    ex = ttg.TaskGraph([S, C]).executable(backend(2))
    ex.invoke(S, 0)
    ex.fence()
    assert got == {"k": 30}


def test_set_size_via_output_terminal_remote():
    data = ttg.Edge("data")
    got = {}
    C = ttg.make_tt(lambda k, v, outs: got.__setitem__(k, v), [data], [],
                    keymap=lambda k: 0)
    C.set_input_reducer(0, lambda a, b: a + b)

    def src(key, outs):
        outs.set_size(0, "k", 3)
        for i in range(3):
            outs.send(0, "k", i)

    S = ttg.make_tt(src, [], [data], keymap=lambda k: 1)
    ex = ttg.TaskGraph([S, C]).executable(backend(2))
    ex.invoke(S, 0)
    ex.fence()
    assert got == {"k": 3}


def test_cyclic_template_graph_feedback_loop():
    """Template graphs may contain cycles (only the task DAG is acyclic)."""
    loop = ttg.Edge("loop", key_type=int, value_type=int)
    done = []

    def step(key, v, outs):
        if key < 5:
            outs.send(0, key + 1, v + key)
        else:
            done.append(v)

    T = ttg.make_tt(step, [loop], [loop], name="LOOP", keymap=lambda k: k % 3)
    ex = ttg.TaskGraph([T]).executable(backend(3))
    ex.invoke(T, 0, [0])
    ex.fence()
    assert done == [sum(range(5))]


def test_free_function_send_inside_body():
    e = ttg.Edge("f")
    got = []

    def src(key, outs):
        ttg.send(0, key, "via-free-fn")  # no explicit outs

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, v, outs: got.append(v), [e], [], keymap=lambda k: 0)
    ex = ttg.TaskGraph([S, C]).executable(backend(1))
    ex.invoke(S, 0)
    ex.fence()
    assert got == ["via-free-fn"]


def test_free_function_outside_body_raises():
    with pytest.raises(DeliveryError):
        ttg.send(0, 0, "x")


def test_task_counts_and_pending():
    e = ttg.Edge("tc")

    def src(key, outs):
        outs.send(0, key, 1)

    S = ttg.make_tt(src, [], [e], name="SRC", keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, v, outs: None, [e], [], name="SNK", keymap=lambda k: 0)
    ex = ttg.TaskGraph([S, C]).executable(backend(1))
    for k in range(3):
        ex.invoke(S, k)
    ex.fence()
    assert dict(ex.task_counts) == {"SRC": 3, "SNK": 3}
    assert ex.pending_instances == 0


def test_graph_validation_diagnostics():
    dangling_out = ttg.Edge("nowhere")
    unfed_in = ttg.Edge("unfed")
    T = ttg.make_tt(lambda k, v, outs: None, [unfed_in], [dangling_out], name="T")
    g = ttg.TaskGraph([T])
    issues = g.validate()
    assert any("unfed" in i for i in issues)
    assert any("nowhere" in i for i in issues)


def test_graph_requires_tasks_and_unique():
    with pytest.raises(GraphConstructionError):
        ttg.TaskGraph([])
    T = ttg.make_tt(lambda k, outs: None, [], [])
    with pytest.raises(GraphConstructionError):
        ttg.TaskGraph([T, T])


def test_to_dot():
    e = ttg.Edge("flow")
    A = ttg.make_tt(lambda k, outs: None, [], [e], name="A")
    B = ttg.make_tt(lambda k, v, outs: None, [e], [], name="B")
    dot = ttg.TaskGraph([A, B], name="g").to_dot()
    assert '"A" -> "B"' in dot and "digraph" in dot


def test_edges_listing():
    e1, e2 = ttg.Edge("e1"), ttg.Edge("e2")
    A = ttg.make_tt(lambda k, outs: None, [], [e1], name="A")
    B = ttg.make_tt(lambda k, v, outs: None, [e1], [e2], name="B")
    g = ttg.TaskGraph([A, B])
    names = {e.name for e in g.edges()}
    assert names == {"e1", "e2"}


def test_determinism_across_runs():
    def run():
        e = ttg.Edge("d")
        got = []

        def src(key, outs):
            outs.broadcast(0, list(range(6)), key)

        S = ttg.make_tt(src, [], [e], keymap=lambda k: k % 3)
        C = ttg.make_tt(lambda k, v, outs: got.append((k, v)), [e], [],
                        keymap=lambda k: k % 3)
        be = backend(3)
        ex = ttg.TaskGraph([S, C]).executable(be)
        for k in range(4):
            ex.invoke(S, k)
        t = ex.fence()
        return got, t

    g1, t1 = run()
    g2, t2 = run()
    assert g1 == g2 and t1 == t2


def test_executable_inject_matches_terminals():
    e1, e2 = ttg.Edge("a"), ttg.Edge("b")
    got = []
    T = ttg.make_tt(lambda k, a, b, outs: got.append((k, a, b)), [e1, e2], [],
                    keymap=lambda k: 0)
    ex = ttg.TaskGraph([T]).executable(backend(1))
    ex.inject(T, 0, "k", 1)
    ex.inject(T, 1, "k", 2)
    ex.fence()
    assert got == [("k", 1, 2)]


def test_madness_backend_runs_same_graph():
    e = ttg.Edge("m")
    got = []

    def src(key, outs):
        outs.send(0, key, key * 3)

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, v, outs: got.append(v), [e], [], keymap=lambda k: 1)
    ex = ttg.TaskGraph([S, C]).executable(MadnessBackend(Cluster(HAWK, 2)))
    for k in range(3):
        ex.invoke(S, k)
    ex.fence()
    assert sorted(got) == [0, 3, 6]


def test_typed_edge_enforced_at_send():
    e = ttg.Edge("typed", key_type=int, value_type=str)

    def src(key, outs):
        outs.send(0, "bad-key", "v")

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, v, outs: None, [e], [], keymap=lambda k: 0)
    ex = ttg.TaskGraph([S, C]).executable(backend(1))
    ex.invoke(S, 0)
    with pytest.raises(Exception):
        ex.fence()


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitize"])
def test_typed_edge_check_comes_first(sanitize):
    """An ill-typed key fails the edge's check before anything routes it:
    the sanitizer keys its state by the key, so an unhashable one must not
    reach it."""
    e = ttg.Edge("typed", key_type=int, value_type=str)
    S = ttg.make_tt(lambda k, outs: outs.send(0, [k], "v"), [], [e],
                    keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, v, outs: None, [e], [], keymap=lambda k: 0)
    ex = ttg.TaskGraph([S, C]).executable(backend(1), sanitize=sanitize)
    ex.invoke(S, 0)
    with pytest.raises(TypeMismatchError, match="expects key of type int"):
        ex.fence()


def test_finished_cell_is_freed_by_reference_counting():
    """A fenced executable and its graph go with their last reference,
    without the cyclic collector: fence drops the compiled tables, whose
    closures hold the executable in cycles."""
    import gc
    import weakref

    from repro.apps.cholesky import cholesky_ttg
    from repro.core.graph import (add_construction_observer,
                                  remove_construction_observer)
    from repro.linalg import BlockCyclicDistribution, TiledMatrix

    refs = []

    def observe(kind, obj):
        refs.append((kind, weakref.ref(obj)))

    a = TiledMatrix(512, 128, BlockCyclicDistribution.for_ranks(4), synthetic=True)
    add_construction_observer(observe)
    gc.disable()
    try:
        cholesky_ttg(a, backend())
        alive = [kind for kind, ref in refs if ref() is not None]
    finally:
        gc.enable()
        remove_construction_observer(observe)
    assert sorted(kind for kind, _ in refs) == ["executable", "graph"]
    assert alive == []


@pytest.mark.parametrize("watch", ["plain", "telemetry", "sanitize"])
def test_task_completing_before_it_started_raises(watch):
    """A cost map that runs a task backwards in virtual time is refused at
    its completion, on the plain and the observed paths alike."""
    from repro.sim.engine import EngineError
    from repro.telemetry import Telemetry

    e = ttg.Edge("e")
    A = ttg.make_tt(lambda k, outs: outs.send(0, k, 1), [], [e], name="A",
                    keymap=lambda k: 0)
    B = ttg.make_tt(lambda k, v, outs: None, [e], [], name="B",
                    keymap=lambda k: 0, cost=lambda k, v: (-1e9, -1e9))
    tel = Telemetry(nranks=1, capacity=None) if watch == "telemetry" else None
    be = ParsecBackend(Cluster(HAWK, 1), telemetry=tel)
    ex = ttg.TaskGraph([A, B]).executable(be, sanitize=watch == "sanitize")
    ex.invoke(A, 0)
    with pytest.raises(EngineError, match="before now"):
        ex.fence()


def test_maps_changed_after_binding_are_honoured_or_refused():
    """A keymap or cost map set on a bound template takes effect at the
    next invoke; one set while the graph runs is refused and not kept."""
    e = ttg.Edge("e")
    ranks = []
    A = ttg.make_tt(lambda k, outs: outs.send(0, k, k), [], [e], name="A",
                    keymap=lambda k: 0)
    B = ttg.make_tt(lambda k, v, outs: ranks.append(outs.rank), [e], [],
                    name="B", keymap=lambda k: 0)
    ex = ttg.TaskGraph([A, B]).executable(backend(2))
    B.set_keymap(lambda k: 1)
    ex.invoke(A, 0)
    t0 = ex.fence()
    B.set_cost(lambda k, v: 2.5e10)  # 1 s on a Hawk worker
    ex.invoke(A, 1)
    assert ex.fence() - t0 > 0.9
    assert ranks == [1, 1]

    f = ttg.Edge("f")
    D = ttg.make_tt(lambda k, v, outs: None, [f], [], name="D",
                    keymap=lambda k: 0)

    def meddle(k, outs):
        D.set_priomap(lambda key: 1)

    M = ttg.make_tt(meddle, [], [f], name="M", keymap=lambda k: 0)
    ex = ttg.TaskGraph([M, D]).executable(backend(1))
    ex.invoke(M, 0)
    with pytest.raises(GraphConstructionError, match="running"):
        ex.fence()
    assert D._priomap is None  # the refused map was not stored
