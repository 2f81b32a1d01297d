"""Tests for edges, terminals, template tasks and keymaps."""

import zlib

import pytest

from repro.core.edge import Edge, Void, edges
from repro.core.exceptions import (
    GraphConstructionError,
    TypeMismatchError,
)
from repro.core.keymap import (
    block_cyclic_keymap,
    constant_keymap,
    hash_keymap,
    round_robin_keymap,
    subtree_keymap,
    zero_priomap,
)
from repro.core.graph import TaskGraph
from repro.core.task import make_tt
from repro.runtime import ParsecBackend
from repro.sim.cluster import HAWK, Cluster


# -------------------------------------------------------------------- edges


def test_edge_type_checks():
    e = Edge("e", key_type=int, value_type=str)
    e.check_key(3)
    e.check_value("ok")
    with pytest.raises(TypeMismatchError):
        e.check_key("three")
    with pytest.raises(TypeMismatchError):
        e.check_value(3)


def test_edge_void_types():
    e = Edge("ctl", key_type=Void, value_type=Void)
    e.check_key(None)
    e.check_value(None)
    with pytest.raises(TypeMismatchError):
        e.check_key(1)
    with pytest.raises(TypeMismatchError):
        e.check_value(1)


def test_edge_unchecked_by_default():
    e = Edge("any")
    e.check_key(object())
    e.check_value(object())


def test_void_cannot_instantiate():
    with pytest.raises(TypeError):
        Void()


def test_edges_helper():
    a, b = Edge("a"), Edge("b")
    assert edges(a, b) == (a, b)
    with pytest.raises(TypeError):
        edges(a, "not an edge")


def test_edge_names_unique_by_default():
    assert Edge().name != Edge().name


# ------------------------------------------------------------ template task


def body(key, outs):
    pass


def test_make_tt_terminals_bound_to_edges():
    e1, e2, e3 = Edge("in1"), Edge("in2"), Edge("out1")
    tt = make_tt(lambda key, a, b, outs: None, [e1, e2], [e3], name="T")
    assert tt.num_inputs == 2 and tt.num_outputs == 1
    assert [(ref(), i) for ref, i in e1.consumers] == [(tt, 0)]
    assert [(ref(), i) for ref, i in e2.consumers] == [(tt, 1)]
    assert [(ref(), i) for ref, i in e3.producers] == [(tt, 0)]
    assert tt.inputs[1].tt() is tt and tt.outputs[0].tt() is tt
    # The edges refer to the template weakly: freed, it drops out.
    del tt
    assert [ref() for ref, _ in e1.consumers + e3.producers] == [None, None]
    u = make_tt(lambda key, a, outs: None, [e1], [], name="U")
    assert [(ref(), i) for ref, i in e1.consumers] == [(u, 0)]


def test_make_tt_requires_callable():
    with pytest.raises(GraphConstructionError):
        make_tt("not callable", [], [])


def test_default_keymap_stable_and_in_range():
    tt = make_tt(body, [], [], name="T")
    r1 = tt.keymap((1, 2), 8)
    assert 0 <= r1 < 8
    assert tt.keymap((1, 2), 8) == r1


def test_keymap_out_of_range_rejected():
    tt = make_tt(body, [], [], keymap=lambda k: 99)
    with pytest.raises(GraphConstructionError):
        tt.keymap(0, 4)


def spawned(**maps):
    """(flops, bytes moved, priority) of the task ``invoke`` spawns from a
    template made with ``maps``."""
    got = []
    tt = make_tt(lambda k, outs: got.append(
        (outs.flops, outs.bytes_moved, outs.priority)), [], [], **maps)
    ex = TaskGraph([tt]).executable(ParsecBackend(Cluster(HAWK, 1)))
    ex.invoke(tt, "anything")
    ex.fence()
    return got[0]


def test_priority_and_cost_defaults():
    assert spawned() == (0.0, 0.0, 0)
    assert spawned(priomap=lambda k: 3)[2] == 3


def test_cost_scalar_and_tuple_forms():
    assert spawned(cost=lambda k: 5) == (5.0, 0.0, 0)
    assert spawned(cost=lambda k: (5, 7.0)) == (5.0, 7.0, 0)


def test_set_input_reducer_by_name_and_index():
    e = Edge("in")
    tt = make_tt(lambda key, x, outs: None, [e], [], input_names=["acc"])
    tt.set_input_reducer("acc", lambda a, b: a + b, size=4)
    term = tt.in_terminal(0)
    assert term.is_streaming and term.static_stream_size == 4


def test_reducer_cannot_be_set_twice():
    e = Edge("in")
    tt = make_tt(lambda key, x, outs: None, [e], [])
    tt.set_input_reducer(0, lambda a, b: a)
    with pytest.raises(GraphConstructionError):
        tt.set_input_reducer(0, lambda a, b: a)


def test_reducer_size_must_be_positive():
    e = Edge("in")
    tt = make_tt(lambda key, x, outs: None, [e], [])
    with pytest.raises(GraphConstructionError):
        tt.set_input_reducer(0, lambda a, b: a, size=0)


def test_in_terminal_unknown_name():
    tt = make_tt(lambda key, x, outs: None, [Edge()], [])
    with pytest.raises(GraphConstructionError):
        tt.in_terminal("missing")


# ------------------------------------------------------------------ keymaps


def test_hash_keymap_range_and_stability():
    km = hash_keymap(7)
    ranks = [km((i, i + 1)) for i in range(100)]
    assert all(0 <= r < 7 for r in ranks)
    assert ranks == [hash_keymap(7)((i, i + 1)) for i in range(100)]
    assert len(set(ranks)) > 1  # actually spreads


def test_round_robin_keymap():
    km = round_robin_keymap(4)
    assert km(5) == 1
    assert km((6, 0)) == 2


def test_block_cyclic_keymap():
    km = block_cyclic_keymap(2, 3)
    assert km((0, 0)) == 0
    assert km((0, 1)) == 1
    assert km((1, 0)) == 3
    assert km((3, 4)) == (3 % 2) * 3 + (4 % 3)


def test_constant_keymap():
    km = constant_keymap(2)
    assert km("anything") == 2


def test_subtree_keymap_keeps_subtrees_together():
    km = subtree_keymap(16, target_level=2)
    # Deep boxes map with their level-2 ancestor.
    base = km((0, 2, (1, 3)))
    assert km((0, 3, (2, 6))) == base
    assert km((0, 5, (8, 24))) == base
    # Boxes above the target level map individually.
    assert 0 <= km((0, 0, (0, 0))) < 16


def test_subtree_keymap_distinguishes_functions():
    km = subtree_keymap(64, target_level=2)
    ranks = {km((fid, 2, (1, 1))) for fid in range(40)}
    assert len(ranks) > 5


def test_subtree_keymap_matches_crc32_definition():
    # The owner is remembered per anchor; placement is the crc32 it always was.
    km = subtree_keymap(7, target_level=1)
    for _ in range(2):  # second pass answers from the memo
        for fid in range(3):
            for level in range(4):
                for i in range(2**level):
                    for j in range(2**level):
                        shift = max(level - 1, 0)
                        anchor = (fid, min(level, 1), (i >> shift, j >> shift))
                        want = zlib.crc32(repr(anchor).encode()) % 7
                        assert km((fid, level, (i, j))) == want


def test_zero_priomap():
    assert zero_priomap("x") == 0
