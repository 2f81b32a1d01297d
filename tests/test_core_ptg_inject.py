"""Tests for the PTG front-end and ``Executable.inject``."""

import pytest

from repro import core as ttg
from repro.core.exceptions import GraphConstructionError
from repro.core.ptg import PTG, Flow, TaskClass
from repro.runtime import ParsecBackend
from repro.sim.cluster import Cluster, HAWK


def backend(nnodes=4):
    return ParsecBackend(Cluster(HAWK, nnodes))


# -------------------------------------------------------------------- inject


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


# ----------------------------------------------------------------------- PTG


def test_ptg_pipeline():
    """A 2-class PTG chain: GEN squares flow x and hands it to SINK."""
    got = {}

    def gen_kernel(key, data):
        data["x"] = data["x"] ** 2

    def sink_kernel(key, data):
        got[key] = data["x"]

    gen = TaskClass(
        "GEN",
        kernel=gen_kernel,
        flows=[Flow("x", dests=lambda k: [("SINK", k, "x")], mode="move")],
        keymap=lambda k: k % 4,
    )
    sink = TaskClass(
        "SINK", kernel=sink_kernel, flows=[Flow("x")], keymap=lambda k: 0
    )
    ptg = PTG([gen, sink])
    ex = ptg.executable(backend())
    for k in range(5):
        ptg.inject(ex, "GEN", "x", k, k + 1)
    ex.fence()
    assert got == {k: (k + 1) ** 2 for k in range(5)}


def test_ptg_chain_recurrence():
    """A PTG task class chaining into itself (k -> k+1), like SYRK chains."""
    out = {}

    def step_kernel(key, data):
        data["acc"] = data["acc"] + key

    def stop_kernel(key, data):
        out["total"] = data["acc"]

    n = 6
    step = TaskClass(
        "STEP",
        kernel=step_kernel,
        flows=[
            Flow(
                "acc",
                dests=lambda k: (
                    [("STEP", k + 1, "acc")] if k + 1 < n else [("STOP", 0, "acc")]
                ),
                mode="move",
            )
        ],
        keymap=lambda k: k % 3,
    )
    stop = TaskClass("STOP", kernel=stop_kernel, flows=[Flow("acc")],
                     keymap=lambda k: 0)
    ptg = PTG([step, stop])
    ex = ptg.executable(backend(3))
    ptg.inject(ex, "STEP", "acc", 0, 0)
    ex.fence()
    assert out["total"] == sum(range(n))


def test_ptg_fan_out_multiple_flows():
    """One class with two flows feeding two different consumers."""
    got = []

    def src_kernel(key, data):
        data["a"] = data["a"] * 2
        data["b"] = data["b"] + 1

    src = TaskClass(
        "SRC",
        kernel=src_kernel,
        flows=[
            Flow("a", dests=lambda k: [("CA", k, "v")]),
            Flow("b", dests=lambda k: [("CB", k, "v")]),
        ],
        keymap=lambda k: 0,
    )
    ca = TaskClass("CA", kernel=lambda k, d: got.append(("a", d["v"])),
                   flows=[Flow("v")], keymap=lambda k: 1)
    cb = TaskClass("CB", kernel=lambda k, d: got.append(("b", d["v"])),
                   flows=[Flow("v")], keymap=lambda k: 2)
    ptg = PTG([src, ca, cb])
    ex = ptg.executable(backend())
    ptg.inject(ex, "SRC", "a", 0, 10)
    ptg.inject(ex, "SRC", "b", 0, 10)
    ex.fence()
    assert sorted(got) == [("a", 20), ("b", 11)]


def test_ptg_unknown_destination_class():
    src = TaskClass(
        "SRC",
        kernel=lambda k, d: None,
        flows=[Flow("x", dests=lambda k: [("NOPE", k, "x")])],
        keymap=lambda k: 0,
    )
    ptg = PTG([src])
    with pytest.warns(RuntimeWarning, match="TTG lint: TTG008 .*'NOPE'"):
        ex = ptg.executable(backend(1))
    ptg.inject(ex, "SRC", "x", 0, 1)
    with pytest.raises(GraphConstructionError):
        ex.fence()


def test_ptg_validation():
    with pytest.raises(GraphConstructionError):
        PTG([])
    c = TaskClass("A", kernel=lambda k, d: None, flows=[Flow("x")])
    with pytest.raises(GraphConstructionError):
        PTG([c, TaskClass("A", kernel=lambda k, d: None, flows=[Flow("x")])])
    with pytest.raises(GraphConstructionError):
        PTG([TaskClass("B", kernel=lambda k, d: None, flows=[])])
    with pytest.raises(GraphConstructionError):
        PTG([TaskClass("C", kernel=lambda k, d: None,
                       flows=[Flow("x"), Flow("x")])])


def test_ptg_wavefront_sweep():
    """2-D wavefront: each cell depends on its north and west neighbours --
    the canonical PTG pattern; verified against a sequential sweep."""
    n = 5
    grid = {}

    def cell_kernel(key, data):
        i, j = key
        grid[key] = data["n"] + data["w"] + 1

    def dests(key):
        i, j = key
        out = []
        if i + 1 < n:
            out.append(("CELL", (i + 1, j), "n"))
        if j + 1 < n:
            out.append(("CELL", (i, j + 1), "w"))
        return out

    def cell_body(key, data):
        cell_kernel(key, data)
        # both flows forward the freshly computed value
        data["n"] = grid[key]
        data["w"] = grid[key]

    cell = TaskClass(
        "CELL",
        kernel=cell_body,
        flows=[Flow("n", dests=dests), Flow("w", dests=lambda k: ())],
        keymap=lambda key: (key[0] + key[1]) % 4,
    )
    ptg = PTG([cell])
    ex = ptg.executable(backend())
    # seed the boundary
    for i in range(n):
        for j in range(n):
            if i == 0:
                ptg.inject(ex, "CELL", "n", (i, j), 0)
            if j == 0:
                ptg.inject(ex, "CELL", "w", (i, j), 0)
    ex.fence()

    # sequential reference
    ref = {}
    for i in range(n):
        for j in range(n):
            north = ref[(i - 1, j)] if i > 0 else 0
            west = ref[(i, j - 1)] if j > 0 else 0
            ref[(i, j)] = north + west + 1
    assert grid == ref
