"""Fault-seeding tests for the runtime sanitizer (TTG-San, SAN0xx checks).

Each test arms the sanitizer (``sanitize=True`` to collect findings and
warn, ``strict=True`` to raise) and deliberately commits one runtime
fault, then asserts the exact diagnostic.
"""

import warnings

import numpy as np
import pytest

from repro import core as ttg
from repro.analysis import SANITIZER_RULE_IDS, get_rule
from repro.core import Executable, SanitizerError
from repro.runtime import MadnessBackend, ParsecBackend
from repro.sim import Cluster, HAWK


def _backend(n=2):
    return ParsecBackend(Cluster(HAWK, n))


def _noop(key, *args):
    pass


def san_findings(ex, rule_id):
    return [f for f in ex.sanitizer.findings if f.rule.id == rule_id]


def test_sanitizer_catalog():
    assert len(SANITIZER_RULE_IDS) >= 5
    for rid in SANITIZER_RULE_IDS:
        assert get_rule(rid).severity == "error"


# ----------------------------------------------------- SAN001: double delivery


def _one_sink_graph():
    e = ttg.Edge("in", key_type=int, value_type=int)
    sink = ttg.make_tt(_noop, [e], [], name="SINK", keymap=lambda k: 0)
    return ttg.TaskGraph([sink], name="g"), sink


def test_san001_duplicate_injection():
    g, sink = _one_sink_graph()
    ex = g.executable(_backend(), sanitize=True)
    ex.inject(sink, 0, 7, 1)
    with pytest.warns(RuntimeWarning, match="TTG-San: SAN001"):
        ex.inject(sink, 0, 7, 2)
    fs = san_findings(ex, "SAN001")
    assert len(fs) == 1
    assert fs[0].location == "SINK[7].in0"
    assert "first sent by <inject>" in fs[0].message
    assert "sent again by <inject>" in fs[0].message


def test_san001_duplicate_send_names_the_sending_task():
    e = ttg.Edge("ab", key_type=int, value_type=int)
    sink = ttg.make_tt(_noop, [e], [], name="SINK", keymap=lambda k: 0)

    def gen_body(key, outs):
        outs.send(0, 5, 1)
        outs.send(0, 5, 2)  # same consumer key: duplicate

    gen = ttg.make_tt(gen_body, [], [e], name="GEN", keymap=lambda k: 0)
    ex = ttg.TaskGraph([gen, sink]).executable(_backend(), sanitize=True)
    ex.invoke(gen, 0)
    with warnings.catch_warnings():
        # Ignore the follow-on SAN002 the second delivery also triggers.
        warnings.simplefilter("ignore")
        ex.fence()
    fs = san_findings(ex, "SAN001")
    assert len(fs) == 1
    assert "first sent by GEN[0]" in fs[0].message


# ------------------------------------------------------ SAN002: task-ID reuse


def test_san002_invoke_reuses_task_id():
    g, sink = _one_sink_graph()
    ex = g.executable(_backend(), sanitize=True)
    ex.invoke(sink, 3, [1])
    with pytest.warns(RuntimeWarning, match="TTG-San: SAN002"):
        ex.invoke(sink, 3, [2])
    fs = san_findings(ex, "SAN002")
    assert fs[0].location == "SINK[3]"
    assert "already fired" in fs[0].message


def test_san002_delivery_after_fire():
    g, sink = _one_sink_graph()
    ex = g.executable(_backend(), sanitize=True)
    ex.inject(sink, 0, 3, 1)
    ex.fence()
    ex.inject(sink, 0, 3, 2)
    with pytest.warns(RuntimeWarning, match="TTG-San: SAN002"):
        ex.fence()
    assert any("task-ID reuse" in f.message for f in san_findings(ex, "SAN002"))


def test_san002_strict_raises():
    g, sink = _one_sink_graph()
    ex = g.executable(_backend(), strict=True)
    ex.invoke(sink, 3, [1])
    with pytest.raises(SanitizerError) as exc:
        ex.invoke(sink, 3, [2])
    assert exc.value.rule == "SAN002"
    assert "SAN002" in str(exc.value)


# ------------------------------------------------ SAN003: write after cref share


def test_san003_mutating_cref_shared_data():
    e = ttg.Edge("ab", key_type=int, value_type=np.ndarray)
    sink = ttg.make_tt(_noop, [e], [], name="SINK", keymap=lambda k: 0)
    arr = np.zeros(8)

    def gen_body(key, outs):
        outs.send(0, key, arr, mode="cref")
        arr[0] = 99.0  # mutate after sharing: the classic cref race

    gen = ttg.make_tt(gen_body, [], [e], name="GEN", keymap=lambda k: 0)
    # ParsecBackend: runtime-owned data, cref shares without a copy.
    ex = ttg.TaskGraph([gen, sink]).executable(_backend(), sanitize=True)
    ex.invoke(gen, 0)
    with pytest.warns(RuntimeWarning, match="TTG-San: SAN003"):
        ex.fence()
    fs = san_findings(ex, "SAN003")
    assert len(fs) == 1
    assert "shared via cref by GEN[0]" in fs[0].message
    assert "mutated" in fs[0].message


def test_san003_clean_on_copying_backend():
    # MadnessBackend copies on cref, so the same program is race-free.
    e = ttg.Edge("ab", key_type=int, value_type=np.ndarray)
    sink = ttg.make_tt(_noop, [e], [], name="SINK", keymap=lambda k: 0)
    arr = np.zeros(8)

    def gen_body(key, outs):
        outs.send(0, key, arr, mode="cref")
        arr[0] = 99.0

    gen = ttg.make_tt(gen_body, [], [e], name="GEN", keymap=lambda k: 0)
    backend = MadnessBackend(Cluster(HAWK, 2))
    ex = ttg.TaskGraph([gen, sink]).executable(backend, sanitize=True)
    ex.invoke(gen, 0)
    ex.fence()
    assert san_findings(ex, "SAN003") == []


# --------------------------------------------- SAN004: stream control after fire


def test_san004_stream_control_after_fire():
    e = ttg.Edge("s", key_type=int, value_type=int)
    red = ttg.make_tt(_noop, [e], [], name="RED", keymap=lambda k: 0)
    red.set_input_reducer(0, lambda a, b: a + b)  # dynamic size
    g = ttg.TaskGraph([red])
    ex = g.executable(_backend(), sanitize=True)
    ex.inject(red, 0, 1, 10)
    ex.set_argstream_size(red, 0, 1, 1)
    ex.fence()  # stream complete: RED[1] fires
    with pytest.warns(RuntimeWarning, match="TTG-San: SAN004"):
        ex.set_argstream_size(red, 0, 1, 1)
    fs = san_findings(ex, "SAN004")
    assert fs[0].location == "RED[1].in0"
    assert "after the task instance already fired" in fs[0].message


# ------------------------------------------------------ SAN005: data-copy leak
# ---------------------------------------------------- SAN006: stranded messages


def _half_fed_graph(value):
    e1 = ttg.Edge("l", key_type=int, value_type=object)
    e2 = ttg.Edge("r", key_type=int, value_type=object)
    join = ttg.make_tt(_noop, [e1, e2], [], name="JOIN", keymap=lambda k: 0)
    g = ttg.TaskGraph([join], name="g")
    ex = g.executable(_backend(), sanitize=True)
    ex.inject(join, 0, 0, value)  # in1 never arrives
    return ex


def test_san006_stranded_instance_reports_got_and_missing():
    ex = _half_fed_graph(7)  # int payload: not tracked, no SAN005 noise
    with pytest.warns(RuntimeWarning, match="TTG-San: SAN006"):
        ex.fence()
    fs = san_findings(ex, "SAN006")
    assert len(fs) == 1
    assert fs[0].location == "JOIN[0]"
    assert "received [in0=1/1]" in fs[0].message
    assert "waiting on [in1=0/1]" in fs[0].message


def test_san005_leaked_data_copy():
    ex = _half_fed_graph(np.ones(4))  # array payload: tracked, leaks
    with pytest.warns(RuntimeWarning):
        ex.fence()
    fs = san_findings(ex, "SAN005")
    assert len(fs) == 1
    assert "never consumed" in fs[0].message
    assert "ndarray delivered by <inject>" in fs[0].message
    # ... and the stranded instance is reported alongside.
    assert len(san_findings(ex, "SAN006")) == 1


def test_san005_clean_run_has_no_leaks():
    e = ttg.Edge("ab", key_type=int, value_type=np.ndarray)
    got = []

    def sink_body(key, v, outs):
        got.append(v)

    sink = ttg.make_tt(sink_body, [e], [], name="SINK", keymap=lambda k: 0)

    def gen_body(key, outs):
        outs.send(0, key, np.full(4, key), mode="move")

    gen = ttg.make_tt(gen_body, [], [e], name="GEN", keymap=lambda k: k % 2)
    ex = ttg.TaskGraph([gen, sink]).executable(_backend(), sanitize=True)
    for k in range(4):
        ex.invoke(gen, k)
    ex.fence()
    assert ex.sanitizer.findings == []
    assert len(got) == 4


def test_san005_names_the_sender_of_a_streaming_input():
    # One message of a two-message stream: the leak names who sent it.
    e = ttg.Edge("s", key_type=int, value_type=np.ndarray)
    red = ttg.make_tt(_noop, [e], [], name="RED", keymap=lambda k: 0)
    red.set_input_reducer(0, lambda a, b: a + b, size=2)
    gen = ttg.make_tt(lambda key, outs: outs.send(0, 0, np.zeros(2)), [], [e],
                      name="GEN", keymap=lambda k: 0)
    ex = ttg.TaskGraph([gen, red]).executable(_backend(), sanitize=True)
    ex.invoke(gen, 0)
    # The half-fed RED instance is also stranded (SAN006).
    with pytest.warns(RuntimeWarning, match="TTG-San: SAN006 .* RED\\[0\\]"), \
            pytest.warns(RuntimeWarning, match="TTG-San: SAN005"):
        ex.fence()
    fs = san_findings(ex, "SAN005")
    assert len(fs) == 1
    assert "ndarray delivered by GEN[0] (refcount 1)" in fs[0].message


def test_san005_reduced_stream_inputs_are_consumed():
    # The reducer folds every delivered array; once the instance fires,
    # none of them is a leak, on either backend.
    for backend_cls in (ParsecBackend, MadnessBackend):
        e = ttg.Edge("s", key_type=int, value_type=np.ndarray)
        got = []
        red = ttg.make_tt(lambda key, total, outs: got.append(total), [e], [],
                          name="RED", keymap=lambda k: 0)
        red.set_input_reducer(0, lambda a, b: a + b, size=4)
        gen = ttg.make_tt(lambda key, outs: outs.send(0, 0, np.full(2, key)),
                          [], [e], name="GEN", keymap=lambda k: k % 2)
        ex = ttg.TaskGraph([gen, red]).executable(
            backend_cls(Cluster(HAWK, 2)), strict=True)
        for k in range(4):
            ex.invoke(gen, k)
        ex.fence()
        assert ex.sanitizer.findings == []
        assert got[0].tolist() == [6, 6]


# ------------------------------------------------------- SAN007: use after move


def test_san007_send_after_move():
    e = ttg.Edge("ab", key_type=int, value_type=np.ndarray)
    sink = ttg.make_tt(_noop, [e], [], name="SINK", keymap=lambda k: 0)
    arr = np.zeros(4)

    def gen_body(key, outs):
        outs.send(0, 0, arr, mode="move")
        outs.send(0, 1, arr, mode="move")  # relinquished it already

    gen = ttg.make_tt(gen_body, [], [e], name="GEN", keymap=lambda k: 0)
    ex = ttg.TaskGraph([gen, sink]).executable(_backend(), sanitize=True)
    ex.invoke(gen, 0)
    with pytest.warns(RuntimeWarning, match="TTG-San: SAN007"):
        ex.fence()
    fs = san_findings(ex, "SAN007")
    assert len(fs) == 1
    assert "moved by GEN[0]" in fs[0].message
    assert "sent again by GEN[0]" in fs[0].message


def test_san007_receiver_may_move_on_what_it_took():
    # RELAY received the array by move, so it owns it and may move it on.
    e1 = ttg.Edge("a", key_type=int, value_type=np.ndarray)
    e2 = ttg.Edge("b", key_type=int, value_type=np.ndarray)
    got = []
    sink = ttg.make_tt(lambda key, v, outs: got.append(v), [e2], [],
                       name="SINK", keymap=lambda k: 0)
    relay = ttg.make_tt(
        lambda key, v, outs: outs.send(0, key, v, mode="move"), [e1], [e2],
        name="RELAY", keymap=lambda k: 0)
    arr = np.zeros(4)
    gen = ttg.make_tt(lambda key, outs: outs.send(0, 0, arr, mode="move"),
                      [], [e1], name="GEN", keymap=lambda k: 0)
    ex = ttg.TaskGraph([gen, relay, sink]).executable(_backend(), strict=True)
    ex.invoke(gen, 0)
    ex.fence()
    assert ex.sanitizer.findings == []
    assert got[0] is arr  # moved twice, never copied


def test_san007_third_task_resending_a_moved_value():
    # GEN moves the array to SINK[0]; THIRD, which never received it,
    # sends the same object again.
    data = ttg.Edge("d", key_type=int, value_type=np.ndarray)
    token = ttg.Edge("t", key_type=int, value_type=int)
    sink = ttg.make_tt(_noop, [data], [], name="SINK", keymap=lambda k: 0)
    arr = np.zeros(4)

    def gen_body(key, outs):
        outs.send(0, 0, arr, mode="move")
        outs.send(1, 0, 0)

    gen = ttg.make_tt(gen_body, [], [data, token], name="GEN",
                      keymap=lambda k: 0)
    third = ttg.make_tt(
        lambda key, _t, outs: outs.send(0, 1, arr, mode="move"), [token],
        [data], name="THIRD", keymap=lambda k: 0)
    ex = ttg.TaskGraph([gen, third, sink]).executable(_backend(), sanitize=True)
    ex.invoke(gen, 0)
    with pytest.warns(RuntimeWarning, match="TTG-San: SAN007"):
        ex.fence()
    fs = san_findings(ex, "SAN007")
    assert [(f.location, f.message) for f in fs] == [
        ("SINK[1].in0", "value moved by GEN[0] was sent again by THIRD[0]")]


# --------------------------------------------------------------- housekeeping


def test_sanitizer_not_armed_by_default():
    g, sink = _one_sink_graph()
    ex = g.executable(_backend())
    assert ex.sanitizer is None
    ex.invoke(sink, 3, [1])
    ex.invoke(sink, 3, [2])  # no sanitizer: silently accepted
    ex.fence()


def test_clean_quickstart_style_run_is_silent():
    # The quickstart graph (generate -> fan-out broadcast -> streaming
    # reduce) run end to end under strict sanitizing: no findings.
    results = {}
    numbers = ttg.Edge("numbers", key_type=int, value_type=int)
    squares = ttg.Edge("squares", key_type=int, value_type=int)

    def generate(key, outs):
        outs.send(0, key, key * key)

    def spread(key, square, outs):
        outs.broadcast(0, [0, 1], square)

    def collect(key, total, outs):
        results[key] = total

    gen = ttg.make_tt(generate, [], [numbers], name="GEN", keymap=lambda k: k % 2)
    fan = ttg.make_tt(spread, [numbers], [squares], name="FAN",
                      keymap=lambda k: (k + 1) % 2)
    red = ttg.make_tt(collect, [squares], [], name="REDUCE", keymap=lambda k: k % 2)
    red.set_input_reducer(0, lambda a, b: a + b, size=8)
    ex = Executable.make(ttg.TaskGraph([gen, fan, red]), _backend(), strict=True)
    for k in range(8):
        ex.invoke(gen, k)
    ex.fence()
    assert results == {k: sum(i * i for i in range(8)) for k in (0, 1)}
    assert ex.sanitizer.findings == []
