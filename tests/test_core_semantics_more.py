"""Additional TTG semantics: multi-producer edges, remote injection,
void-key singletons, deep pipelines, and config interplay."""

import pytest

from repro import core as ttg
from repro.runtime import MadnessBackend, ParsecBackend
from repro.runtime.base import BackendConfig
from repro.sim.cluster import Cluster, HAWK


def backend(n=4, **cfg):
    return ParsecBackend(Cluster(HAWK, n), config=BackendConfig(**cfg) if cfg else None)


def test_multiple_producers_one_edge():
    """Two different templates feed the same edge (the SYRK/initiator
    pattern of the Cholesky graph)."""
    e = ttg.Edge("shared")
    got = []

    def src_a(key, outs):
        outs.send(0, ("a", key), 1)

    def src_b(key, outs):
        outs.send(0, ("b", key), 2)

    A = ttg.make_tt(src_a, [], [e], name="A", keymap=lambda k: 0)
    B = ttg.make_tt(src_b, [], [e], name="B", keymap=lambda k: 1)
    C = ttg.make_tt(lambda k, v, outs: got.append((k, v)), [e], [],
                    keymap=lambda k: 2)
    ex = ttg.TaskGraph([A, B, C]).executable(backend())
    ex.invoke(A, 0)
    ex.invoke(B, 0)
    ex.fence()
    assert sorted(got) == [(("a", 0), 1), (("b", 0), 2)]


def test_void_key_singleton_task():
    """A void-key consumer is a singleton: one task, key None."""
    e = ttg.Edge("to_singleton", key_type=ttg.Void)
    got = []

    def src(key, outs):
        outs.send(0, None, "payload")

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, v, outs: got.append((k, v)), [e], [],
                    keymap=lambda k: 1)
    ex = ttg.TaskGraph([S, C]).executable(backend(2))
    ex.invoke(S, 0)
    ex.fence()
    assert got == [(None, "payload")]


def test_remote_injection_routes_to_owner():
    e = ttg.Edge("inj")
    seen_ranks = []

    def body(key, v, outs):
        seen_ranks.append(outs.rank)

    C = ttg.make_tt(body, [e], [], keymap=lambda k: 3)
    ex = ttg.TaskGraph([C]).executable(backend(4))
    ex.inject(C, 0, "k", 1)
    ex.fence()
    assert seen_ranks == [3]


def test_deep_pipeline_across_all_ranks():
    """A 64-stage chain hopping ranks: order and value preserved."""
    e = ttg.Edge("chain")
    trace = []

    def step(key, v, outs):
        trace.append(key)
        if key < 63:
            outs.send(0, key + 1, v + 1)

    T = ttg.make_tt(step, [e], [e], keymap=lambda k: k % 4)
    ex = ttg.TaskGraph([T]).executable(backend())
    ex.inject(T, 0, 0, 0)
    ex.fence()
    assert trace == list(range(64))


def test_streaming_remote_contributions():
    """Stream contributions arriving from three different ranks."""
    e = ttg.Edge("s")
    got = {}

    def contributor(key, outs):
        outs.send(0, "total", key * 100)

    S = ttg.make_tt(contributor, [], [e], keymap=lambda k: k % 4)
    C = ttg.make_tt(lambda k, v, outs: got.__setitem__(k, v), [e], [],
                    keymap=lambda k: 0)
    C.set_input_reducer(0, lambda a, b: a + b, size=3)
    ex = ttg.TaskGraph([S, C]).executable(backend())
    for k in (1, 2, 3):
        ex.invoke(S, k)
    ex.fence()
    assert got == {"total": 600}


def test_config_naive_broadcast_same_results():
    e = ttg.Edge("b")

    def run(broadcast):
        got = []

        def src(key, outs):
            outs.broadcast(0, list(range(6)), "v")

        S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
        C = ttg.make_tt(lambda k, v, outs: got.append(k), [e], [],
                        keymap=lambda k: k % 3)
        be = backend(3, broadcast=broadcast)
        ex = ttg.TaskGraph([S, C]).executable(be)
        ex.invoke(S, 0)
        ex.fence()
        return sorted(got), be.stats.tasks_executed

    # NB: edges bind to templates at construction, so run() rebuilds all.
    # The first run's templates are freed when it returns and drop out of
    # the edge: the second run executes its own 7 tasks only.
    assert run("optimized") == run("naive") == (list(range(6)), 7)


def test_madness_backend_priomap_effective():
    """Priorities order queued tasks on the MADNESS backend too."""
    order = []
    machine = HAWK.with_workers(1)
    be = MadnessBackend(Cluster(machine, 1))
    e = ttg.Edge("p")
    T = ttg.make_tt(lambda k, v, outs: order.append(k), [e], [],
                    keymap=lambda k: 0, priomap=lambda k: k)
    ex = ttg.TaskGraph([T]).executable(be)
    # occupy the single worker, then enqueue in ascending priority
    be.submit(0, lambda: None, flops=2.5e9)
    for k in (1, 5, 3):
        ex.inject(T, 0, k, None)
    ex.fence()
    assert order == [5, 3, 1]


def test_executable_reuse_rejected_for_foreign_injection():
    e = ttg.Edge("f")
    T1 = ttg.make_tt(lambda k, v, outs: None, [e], [], keymap=lambda k: 0)
    other = ttg.make_tt(lambda k, v, outs: None, [ttg.Edge()], [],
                        keymap=lambda k: 0)
    ex = ttg.TaskGraph([T1]).executable(backend(1))
    with pytest.raises(ttg.DeliveryError):
        ex.inject(other, 0, 0, 1)


def test_same_key_different_templates_independent():
    e1, e2 = ttg.Edge("e1"), ttg.Edge("e2")
    got = []
    A = ttg.make_tt(lambda k, v, outs: got.append(("A", k)), [e1], [],
                    name="TA", keymap=lambda k: 0)
    B = ttg.make_tt(lambda k, v, outs: got.append(("B", k)), [e2], [],
                    name="TB", keymap=lambda k: 0)
    ex = ttg.TaskGraph([A, B]).executable(backend(1))
    ex.inject(A, 0, 42, 1)
    ex.inject(B, 0, 42, 2)
    ex.fence()
    assert sorted(got) == [("A", 42), ("B", 42)]
