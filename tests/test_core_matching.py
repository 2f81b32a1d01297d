"""Direct tests of the message -> task path's invariants.

- the sender owns the keymap evaluation: one call per delivered message,
  whichever entry point sent it;
- the delivery faults (duplicate input, stream overflow, out-of-range
  keymap) surface as the same exception types and rule ids on all four
  entry points;
- the per-template matching facts follow ``set_reducer`` whenever it is
  called before ``executable()``, or between a fence and the next entry
  point while an instance waits.

``tests/test_property_random_dag.py`` holds the oracle these complement.
"""

import operator

import pytest

from repro import core as ttg
from repro.core.exceptions import (
    DeliveryError,
    GraphConstructionError,
    StreamError,
)
from repro.runtime import ParsecBackend
from repro.sim.cluster import Cluster, HAWK

ENTRY_POINTS = ["send", "broadcast", "broadcast_multi", "inject"]
NRANKS = 2


def counting(keymap):
    calls = []

    def counted(key):
        calls.append(key)
        return keymap(key)

    return counted, calls


def feeder(entry, messages):
    """A (SRC body, external feed) pair delivering ``messages`` --
    ``(key, value)`` pairs for input 0 of the consumer -- via ``entry``."""
    def body(key, outs):
        for k, v in messages:
            if entry == "send":
                outs.send(0, k, v)
            elif entry == "broadcast":
                outs.broadcast(0, [k], v)
            elif entry == "broadcast_multi":
                outs.broadcast_multi([(0, [k])], v)

    def external(ex, consumer):
        if entry == "inject":
            for k, v in messages:
                ex.inject(consumer, 0, k, v)

    return body, external


def join_graph(entry, messages, keymap, reducer_size=None):
    """SRC on rank 0 feeding input 0 of a two-input JOIN; input 1 is never
    fed, so instances stay pending and a second message meets the first."""
    a, b = ttg.Edge("a"), ttg.Edge("b")
    body, external = feeder(entry, messages)
    src = ttg.make_tt(body, [], [a], name="SRC", keymap=lambda k: 0)
    join = ttg.make_tt(lambda k, x, y, outs: None, [a, b], [], name="JOIN",
                       keymap=keymap)
    if reducer_size is not None:
        join.set_input_reducer(0, operator.add, size=reducer_size)
    ex = ttg.TaskGraph([src, join]).executable(
        ParsecBackend(Cluster(HAWK, NRANKS)))

    def run():
        external(ex, join)
        ex.invoke(src, 0)
        ex.fence()

    return run


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("owner", [0, 1], ids=["local", "remote"])
def test_duplicate_input_raises_delivery_error(entry, owner):
    run = join_graph(entry, [(7, 1), (7, 2)], lambda k: owner)
    with pytest.raises(DeliveryError,
                       match=r"duplicate input for JOIN\[7\]\.in0") as exc:
        run()
    assert exc.value.rule is None


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("owner", [0, 1], ids=["local", "remote"])
def test_stream_overflow_raises_stream_error(entry, owner):
    run = join_graph(entry, [(7, 1), (7, 2)], lambda k: owner, reducer_size=1)
    with pytest.raises(StreamError, match=r"JOIN\[7\]\.in0: stream overflow "
                                          r"\(2 > expected 1\)") as exc:
        run()
    assert exc.value.rule is None


@pytest.mark.filterwarnings("ignore:TTG lint. TTG006")  # probed at bind time too
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_out_of_range_keymap_raises_ttg006(entry):
    run = join_graph(entry, [(7, 1)], lambda k: NRANKS + 3)
    with pytest.raises(GraphConstructionError,
                       match=r"JOIN keymap\(7\) = 5 out of range \[0, 2\)") as exc:
        run()
    assert exc.value.rule == "TTG006"


def test_keymap_is_evaluated_once_per_delivered_message():
    """The sender evaluates the consumer's keymap to route a message and
    the result travels with it: firing does not ask again (it did, for
    the message that completed an instance)."""
    left, right, single = ttg.Edge("left"), ttg.Edge("right"), ttg.Edge("single")
    keys = list(range(6))
    fired = []

    def src_body(key, outs):
        for k in keys[:2]:
            outs.send(0, k, "l")
        outs.broadcast(0, keys[2:4], "l")
        outs.broadcast_multi([(0, keys[4:]), (1, keys[1:])], "lr")
        for k in keys:
            outs.send(2, k, "s")

    join_map, join_calls = counting(lambda k: k % NRANKS)
    one_map, one_calls = counting(lambda k: (k + 1) % NRANKS)
    src_map, src_calls = counting(lambda k: 0)
    src = ttg.make_tt(src_body, [], [left, right, single], name="SRC",
                      keymap=src_map)
    join = ttg.make_tt(lambda k, x, y, outs: fired.append(("JOIN", k, outs.rank)),
                       [left, right], [], name="JOIN", keymap=join_map)
    one = ttg.make_tt(lambda k, x, outs: fired.append(("ONE", k, outs.rank)),
                      [single], [], name="ONE", keymap=one_map)
    backend = ParsecBackend(Cluster(HAWK, NRANKS))
    ex = ttg.TaskGraph([src, join, one]).executable(backend)
    for calls in (join_calls, one_calls, src_calls):
        calls.clear()  # the linter probes key maps with sample keys
    ex.inject(join, 1, 0, "r")  # the one right-hand input SRC leaves out
    ex.invoke(src, 0)
    ex.fence()
    assert sorted(fired) == sorted(
        [("JOIN", k, k % NRANKS) for k in keys]
        + [("ONE", k, (k + 1) % NRANKS) for k in keys])
    assert sorted(join_calls) == sorted(keys + keys)  # 12 messages, 6 fires
    assert sorted(one_calls) == keys                  # 6 messages, 6 fires
    assert src_calls == [0]                           # invoke: once per task


def test_reducer_set_after_make_tt_is_honoured():
    a, b = ttg.Edge("a"), ttg.Edge("b")
    got = []

    def src_body(key, outs):
        outs.send(0, 5, 10)
        for v in (1, 2, 3):
            outs.send(1, 5, v)

    src = ttg.make_tt(src_body, [], [a, b], name="SRC", keymap=lambda k: 0)
    tt = ttg.make_tt(lambda k, x, y, outs: got.append((k, x, y)), [a, b], [],
                     name="SUM", keymap=lambda k: 1)
    graph = ttg.TaskGraph([src, tt])
    tt.set_input_reducer(1, operator.add, size=3)
    assert [t.is_streaming for t in tt.inputs] == [False, True]
    ex = graph.executable(ParsecBackend(Cluster(HAWK, NRANKS)))
    ex.invoke(src, 0)
    ex.fence()
    assert got == [(5, 10, 6)]
    assert ex.pending_instances == 0


def test_reducer_set_on_the_terminal_itself_is_honoured():
    a = ttg.Edge("a")
    got = []

    def src_body(key, outs):
        for v in (1, 2):
            outs.send(0, 9, v)
        outs.set_size(0, 9, 2)

    src = ttg.make_tt(src_body, [], [a], name="SRC", keymap=lambda k: 0)
    tt = ttg.make_tt(lambda k, x, outs: got.append((k, x)), [a], [],
                     name="SUM", keymap=lambda k: 1)
    tt.in_terminal(0).set_reducer(operator.add)  # dynamic size
    ex = ttg.TaskGraph([src, tt]).executable(
        ParsecBackend(Cluster(HAWK, NRANKS)))
    ex.invoke(src, 0)
    ex.fence()
    assert got == [(9, 3)]


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
@pytest.mark.parametrize("reduced, size, want", [(1, 1, (5, 10, 7)),
                                                 (0, 2, (5, 13, 7))],
                         ids=["b", "a"])
def test_reducer_set_between_fences_keeps_the_waiting_instance(
        sanitize, reduced, size, want):
    """``SUM[5]`` has its ``a`` when a fence strands it; a reducer set
    afterwards (on ``b``, or on the ``a`` it holds) turns the one pending
    entry into a stream entry, and the next run's messages fire it."""
    a, b = ttg.Edge("a"), ttg.Edge("b")
    got = []

    def src_body(key, outs):
        if key == 0:
            outs.send(0, 5, 10)
            return
        outs.send(1, 5, 7)
        if reduced == 0:
            outs.send(0, 5, 3)

    src = ttg.make_tt(src_body, [], [a, b], name="SRC", keymap=lambda k: 0)
    tt = ttg.make_tt(lambda k, x, y, outs: got.append((k, x, y)), [a, b], [],
                     name="SUM", keymap=lambda k: 1)
    ex = ttg.TaskGraph([src, tt]).executable(
        ParsecBackend(Cluster(HAWK, NRANKS)), sanitize=sanitize)
    ex.invoke(src, 0)  # sends a only
    if sanitize:
        with pytest.warns(RuntimeWarning, match="SAN006"):
            ex.fence()
    else:
        ex.fence()
    assert ex.pending_instances == 1
    tt.set_input_reducer(reduced, operator.add, size=size)
    ex.invoke(src, 1)
    ex.fence()
    assert got == [want]
    assert ex.pending_instances == 0
