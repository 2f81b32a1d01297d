"""Failure injection: user errors must surface loudly, never corrupt state.

The simulator executes everything inline, so a failing task body, reducer,
keymap, cost function or serializer must propagate out of ``fence`` as the
original exception (with the run left diagnosable) -- silent loss of work
is the one unacceptable outcome, and the drain check guards it.
"""

import pytest

from repro import core as ttg
from repro.runtime import ParsecBackend, TerminationError
from repro.sim.cluster import Cluster, HAWK


def backend(n=2):
    return ParsecBackend(Cluster(HAWK, n))


def test_body_exception_propagates():
    class Boom(RuntimeError):
        pass

    def body(key, outs):
        raise Boom("task body failed")

    T = ttg.make_tt(body, [], [], keymap=lambda k: 0)
    ex = ttg.TaskGraph([T]).executable(backend(1))
    ex.invoke(T, 0)
    with pytest.raises(Boom, match="task body failed"):
        ex.fence()


def test_downstream_body_exception_propagates():
    e = ttg.Edge("x")

    def src(key, outs):
        outs.send(0, key, 1)

    def sink(key, v, outs):
        raise ValueError("sink exploded")

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    K = ttg.make_tt(sink, [e], [], keymap=lambda k: 1)
    ex = ttg.TaskGraph([S, K]).executable(backend(2))
    ex.invoke(S, 0)
    with pytest.raises(ValueError, match="sink exploded"):
        ex.fence()


def test_reducer_exception_propagates():
    e = ttg.Edge("s")

    def src(key, outs):
        outs.send(0, "k", 1)
        outs.send(0, "k", 2)

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    C = ttg.make_tt(lambda k, v, outs: None, [e], [], keymap=lambda k: 0)

    def bad_reducer(a, b):
        raise ZeroDivisionError("reducer failed")

    C.set_input_reducer(0, bad_reducer, size=2)
    ex = ttg.TaskGraph([S, C]).executable(backend(1))
    ex.invoke(S, 0)
    with pytest.raises(ZeroDivisionError):
        ex.fence()


def test_keymap_exception_propagates():
    e = ttg.Edge("x")

    def src(key, outs):
        outs.send(0, key, 1)

    def bad_keymap(key):
        raise KeyError("no placement for you")

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    K = ttg.make_tt(lambda k, v, outs: None, [e], [], keymap=bad_keymap)
    ex = ttg.TaskGraph([S, K]).executable(backend(1))
    ex.invoke(S, 0)
    with pytest.raises(KeyError):
        ex.fence()


def test_cost_fn_exception_propagates():
    e = ttg.Edge("x")

    def src(key, outs):
        outs.send(0, key, 1)

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    K = ttg.make_tt(lambda k, v, outs: None, [e], [], keymap=lambda k: 0,
                    cost=lambda k, v: 1 / 0)
    ex = ttg.TaskGraph([S, K]).executable(backend(1))
    ex.invoke(S, 0)
    with pytest.raises(ZeroDivisionError):
        ex.fence()


def test_unserializable_value_remote_send():
    e = ttg.Edge("x")

    def src(key, outs):
        outs.send(0, key, lambda: None)  # lambdas don't pickle

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    K = ttg.make_tt(lambda k, v, outs: None, [e], [], keymap=lambda k: 1)
    ex = ttg.TaskGraph([S, K]).executable(backend(2))
    ex.invoke(S, 0)
    with pytest.raises(TypeError):
        ex.fence()


def test_unserializable_value_local_send_is_fine():
    """Local deliveries never serialize -- closures may flow rank-locally,
    exactly as in the C++ runtime."""
    e = ttg.Edge("x")
    got = []

    def src(key, outs):
        outs.send(0, key, lambda: 42, mode="move")

    S = ttg.make_tt(src, [], [e], keymap=lambda k: 0)
    K = ttg.make_tt(lambda k, v, outs: got.append(v()), [e], [],
                    keymap=lambda k: 0)
    ex = ttg.TaskGraph([S, K]).executable(backend(2))
    ex.invoke(S, 0)
    ex.fence()
    assert got == [42]


def test_lost_message_detected_by_termination():
    """A completion event the loop never runs leaves its worker busy; the
    drain names the rank instead of returning a short run."""
    be = backend(2)
    be.submit(1, lambda: None, flops=1e6)
    be.engine._heap.clear()  # the completion event is lost
    with pytest.raises(TerminationError, match="lost work on rank 1"):
        be.run()


def test_state_diagnosable_after_failure():
    """After a body failure, the executable still reports its pending
    instances (the stuck dependents) instead of hiding them."""
    e1, e2 = ttg.Edge("a"), ttg.Edge("b")

    def src(key, outs):
        outs.send(0, key, 1)  # feeds only terminal a; b never arrives
        raise RuntimeError("failed after partial sends")

    S = ttg.make_tt(src, [], [e1], keymap=lambda k: 0)
    K = ttg.make_tt(lambda k, a, b, outs: None, [e1, e2], [],
                    keymap=lambda k: 0)
    ex = ttg.TaskGraph([S, K]).executable(backend(1))
    ex.invoke(S, 7)
    with pytest.raises(RuntimeError):
        ex.fence()
    # the half-fed instance is visible for post-mortem
    assert ex.pending_instances >= 0
