"""Additional PTG front-end coverage: maps, costs, accessors, errors."""

import pytest

from repro.core.exceptions import GraphConstructionError
from repro.core.ptg import PTG, Flow, TaskClass
from repro.runtime import ParsecBackend
from repro.sim.cluster import Cluster, HAWK


def backend(n=2):
    return ParsecBackend(Cluster(HAWK, n))


def test_ptg_cost_and_priomap_forwarded():
    tc = TaskClass(
        "T",
        kernel=lambda k, d: None,
        flows=[Flow("x")],
        keymap=lambda k: 0,
        priomap=lambda k: 7 * k,
        cost=lambda k, *a: 123.0,
    )
    ptg = PTG([tc])
    tt = ptg.template("T")
    assert tt.priority(3) == 21
    assert tt.cost(0, [None]) == (123.0, 0.0)


def test_ptg_cost_charges_virtual_time():
    tc = TaskClass(
        "T",
        kernel=lambda k, d: None,
        flows=[Flow("x")],
        keymap=lambda k: 0,
        cost=lambda k, *a: 25.0e9,  # 1 second on one Hawk worker
    )
    ptg = PTG([tc])
    be = backend(1)
    ex = ptg.executable(be)
    ptg.inject(ex, "T", "x", 0, None)
    t = ex.fence()
    assert t >= 1.0


def test_ptg_inject_unknown_flow():
    tc = TaskClass("T", kernel=lambda k, d: None, flows=[Flow("x")],
                   keymap=lambda k: 0)
    ptg = PTG([tc])
    ex = ptg.executable(backend(1))
    with pytest.raises(GraphConstructionError):
        ptg.inject(ex, "T", "nope", 0, None)


def test_ptg_template_accessor():
    tc = TaskClass("NAMED", kernel=lambda k, d: None, flows=[Flow("x")])
    ptg = PTG([tc])
    assert ptg.template("NAMED").name == "NAMED"
    with pytest.raises(KeyError):
        ptg.template("OTHER")


def test_ptg_dest_with_unknown_flow_of_known_class():
    got = []
    a = TaskClass(
        "A",
        kernel=lambda k, d: None,
        flows=[Flow("x", dests=lambda k: [("B", k, "wrong_flow")])],
        keymap=lambda k: 0,
    )
    b = TaskClass("B", kernel=lambda k, d: got.append(k), flows=[Flow("y")],
                  keymap=lambda k: 0)
    ptg = PTG([a, b])
    with pytest.warns(RuntimeWarning,
                      match="TTG lint: TTG008 .*'wrong_flow'"):
        ex = ptg.executable(backend(1))
    ptg.inject(ex, "A", "x", 0, 1)
    with pytest.raises(GraphConstructionError):
        ex.fence()
    assert got == []


def test_ptg_kernel_sees_latest_flow_values():
    seen = {}

    def kern_a(key, data):
        data["x"] = data["x"] + 100

    def kern_b(key, data):
        seen[key] = dict(data)

    a = TaskClass("A", kernel=kern_a,
                  flows=[Flow("x", dests=lambda k: [("B", k, "x")])],
                  keymap=lambda k: 0)
    b = TaskClass("B", kernel=kern_b, flows=[Flow("x"), Flow("y")],
                  keymap=lambda k: 1)
    ptg = PTG([a, b])
    ex = ptg.executable(backend(2))
    ptg.inject(ex, "A", "x", 5, 1)
    ptg.inject(ex, "B", "y", 5, "side-input")
    ex.fence()
    assert seen == {5: {"x": 101, "y": "side-input"}}
