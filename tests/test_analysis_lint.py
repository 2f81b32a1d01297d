"""Per-rule tests for the static flow-graph linter (repro.analysis.lint).

Each test constructs a minimal deliberately-defective graph and asserts
the linter reports exactly the expected rule.
"""

import warnings

import pytest

from repro import core as ttg
from repro.analysis import LINT_RULE_IDS, all_rules, get_rule, lint_graph
from repro.core import Executable, GraphConstructionError, Void
from repro.runtime import ParsecBackend
from repro.sim import Cluster, HAWK


def _backend(n=4):
    return ParsecBackend(Cluster(HAWK, n))


def _noop(key, *args):
    pass


def ids_of(findings):
    return sorted({f.rule.id for f in findings})


def findings_for(graph, rule_id, **kw):
    return [f for f in lint_graph(graph, **kw) if f.rule.id == rule_id]


# --------------------------------------------------------------- rule catalog


def test_rule_catalog_is_complete():
    assert len(LINT_RULE_IDS) >= 8
    for rid in LINT_RULE_IDS:
        rule = get_rule(rid)
        assert rule.severity in ("info", "warning", "error")
        assert rule.title and rule.hint
    assert {r.id for r in all_rules()} >= set(LINT_RULE_IDS)


# ------------------------------------------------------------ TTG001 / TTG002


def test_ttg001_unfed_input():
    e = ttg.Edge("unfed", key_type=int)
    sink = ttg.make_tt(_noop, [e], [], name="SINK")
    g = ttg.TaskGraph([sink], name="g")
    fs = findings_for(g, "TTG001")
    assert len(fs) == 1
    assert fs[0].rule.severity == "info"
    assert "no producer" in fs[0].message
    assert fs[0].location == "g/SINK.in0"


def test_ttg002_dangling_output():
    e = ttg.Edge("dangling", key_type=int)
    src = ttg.make_tt(_noop, [], [e], name="SRC")
    g = ttg.TaskGraph([src], name="g")
    fs = findings_for(g, "TTG002")
    assert len(fs) == 1
    assert fs[0].rule.severity == "warning"
    assert "no consumer" in fs[0].message


def test_connected_pair_is_clean():
    e = ttg.Edge("ab", key_type=int, value_type=int)
    a = ttg.make_tt(_noop, [], [e], name="A")
    b = ttg.make_tt(_noop, [e], [], name="B")
    assert lint_graph(ttg.TaskGraph([a, b])) == []


# ------------------------------------------------------------------- TTG003


def test_ttg003_disjoint_key_types():
    ei = ttg.Edge("ik", key_type=int, value_type=int)
    es = ttg.Edge("sk", key_type=str, value_type=int)
    a = ttg.make_tt(_noop, [], [ei], name="A")
    b = ttg.make_tt(_noop, [], [es], name="B")
    c = ttg.make_tt(_noop, [ei, es], [], name="C")
    g = ttg.TaskGraph([a, b, c])
    fs = findings_for(g, "TTG003")
    assert len(fs) == 1
    assert fs[0].rule.severity == "error"
    assert "never match" in fs[0].message


def test_ttg003_compatible_key_types_ok():
    e1 = ttg.Edge("k1", key_type=int)
    e2 = ttg.Edge("k2", key_type=int)
    a = ttg.make_tt(_noop, [], [e1, e2], name="A")
    b = ttg.make_tt(_noop, [e1, e2], [], name="B")
    assert findings_for(ttg.TaskGraph([a, b]), "TTG003") == []


# ------------------------------------------------------------------- TTG004


def _cycle_pair():
    e1 = ttg.Edge("xy", key_type=int)
    e2 = ttg.Edge("yx", key_type=int)
    x = ttg.make_tt(_noop, [e2], [e1], name="X")
    y = ttg.make_tt(_noop, [e1], [e2], name="Y")
    return x, y


def test_ttg004_unreachable_cycle():
    x, y = _cycle_pair()
    g = ttg.TaskGraph([x, y])
    fs = findings_for(g, "TTG004")
    assert {f.location.split("/")[-1] for f in fs} == {"X", "Y"}


def test_ttg004_waiver_marks_template_as_source():
    # Waiving X declares "seeded externally": Y becomes reachable too.
    x, y = _cycle_pair()
    x.lint_waive("TTG004")
    assert findings_for(ttg.TaskGraph([x, y]), "TTG004") == []


# ------------------------------------------------------------------- TTG005


def _stream_cycle(static_size=None):
    e1 = ttg.Edge("ab", key_type=int, value_type=int)
    e2 = ttg.Edge("ba", key_type=int, value_type=int)
    a = ttg.make_tt(_noop, [e2], [e1], name="A")
    b = ttg.make_tt(_noop, [e1], [e2], name="B")
    b.set_input_reducer(0, lambda acc, x: acc, size=static_size)
    return a, b


def test_ttg005_unbounded_stream_in_cycle():
    a, b = _stream_cycle()
    fs = findings_for(ttg.TaskGraph([a, b]), "TTG005")
    assert len(fs) == 1
    assert "deadlock" in fs[0].message
    assert "A" in fs[0].message and "B" in fs[0].message


def test_ttg005_static_size_is_fine():
    a, b = _stream_cycle(static_size=4)
    assert findings_for(ttg.TaskGraph([a, b]), "TTG005") == []


def test_ttg005_waiver():
    a, b = _stream_cycle()
    b.lint_waive("TTG005")
    assert findings_for(ttg.TaskGraph([a, b]), "TTG005") == []


# ------------------------------------------------------------------- TTG006


def _map_graph(keymap=None, priomap=None):
    e = ttg.Edge("e", key_type=int, value_type=int)
    a = ttg.make_tt(_noop, [], [e], name="A")
    b = ttg.make_tt(_noop, [e], [], name="B", keymap=keymap, priomap=priomap)
    return ttg.TaskGraph([a, b])


def test_ttg006_out_of_range_keymap():
    g = _map_graph(keymap=lambda k: 99)
    fs = findings_for(g, "TTG006", nranks=4)
    assert len(fs) == 1
    assert "out of range" in fs[0].message
    assert fs[0].rule.severity == "error"


def test_ttg006_never_an_int():
    g = _map_graph(keymap=lambda k: "rank0")
    fs = findings_for(g, "TTG006", nranks=4)
    assert len(fs) == 1
    assert "not an int rank" in fs[0].message


def test_ttg006_nondeterministic_keymap():
    state = {"n": 0}

    def flappy(key):
        state["n"] += 1
        return state["n"] % 2

    fs = findings_for(_map_graph(keymap=flappy), "TTG006", nranks=4)
    assert len(fs) == 1
    assert "not a function of the task ID" in fs[0].message


def test_ttg006_partial_domain_maps_are_not_flagged():
    # Maps that only understand their real key shape (tuples, here) may
    # return garbage for other probe shapes; that is not a finding.
    assert findings_for(_map_graph(keymap=lambda key: key[0] % 4),
                        "TTG006", nranks=4) == []
    assert findings_for(_map_graph(keymap=lambda k: k % 4),
                        "TTG006", nranks=4) == []


def test_ttg006_no_nranks_skips_range_check():
    assert findings_for(_map_graph(keymap=lambda k: 99), "TTG006") == []


# ------------------------------------------------------------------- TTG007


def test_ttg007_bad_priomap():
    fs = findings_for(_map_graph(priomap=lambda k: "high"), "TTG007")
    assert len(fs) == 1
    assert "not an int" in fs[0].message


def test_ttg007_partial_domain_priomap_ok():
    assert findings_for(_map_graph(priomap=lambda key: 100 - key[0]),
                        "TTG007") == []


# ------------------------------------------------------------------- TTG009


def test_ttg009_void_stream():
    e = ttg.Edge("ctl", key_type=int, value_type=Void)
    a = ttg.make_tt(_noop, [], [e], name="A")
    b = ttg.make_tt(_noop, [e], [], name="B")
    b.set_input_reducer(0, lambda acc, x: acc, size=2)
    fs = findings_for(ttg.TaskGraph([a, b]), "TTG009")
    assert len(fs) == 1
    assert "Void" in fs[0].message


# ------------------------------------------------------------------- TTG011


def _impure_graph():
    """T's keymap captures a dict and its priomap a live Telemetry."""
    from repro.telemetry.events import Telemetry

    placement = {0: 1}
    tel = Telemetry(nranks=1)
    e = ttg.Edge("e", key_type=int, value_type=int)
    a = ttg.make_tt(_noop, [], [e], name="A")
    t = ttg.make_tt(_noop, [e], [], name="T",
                    keymap=lambda k: placement.get(k, 0),
                    priomap=lambda k: len(tel.bus.instants()))
    return ttg.TaskGraph([a, t], name="g"), t


def test_ttg011_impure_keymap_and_priomap():
    g, _ = _impure_graph()
    fs = findings_for(g, "TTG011")
    assert [f.location for f in fs] == ["g/T.keymap", "g/T.priomap"]
    assert "mutable data (dict) as 'placement'" in fs[0].message
    assert "live runtime object (Telemetry) as 'tel'" in fs[1].message
    assert all(f.rule.severity == "warning" for f in fs)


def test_ttg011_runtime_object_behind_a_bound_helper():
    # A helper bound to a runtime object counts, captured or as the map.
    from repro.telemetry.events import Telemetry

    tel = Telemetry(nranks=1)
    token = tel.bind
    e = ttg.Edge("e", key_type=int, value_type=int)
    a = ttg.make_tt(_noop, [], [e], name="A", keymap=lambda k: token(k) or 0)
    b = ttg.make_tt(_noop, [e], [], name="B", priomap=tel.bind)
    fs = findings_for(ttg.TaskGraph([a, b], name="g"), "TTG011")
    assert [f.location for f in fs] == ["g/A.keymap", "g/B.priomap"]
    assert "(Telemetry) as 'token'" in fs[0].message
    assert "(Telemetry) as 'self'" in fs[1].message


def test_ttg011_exempts_cost_maps_and_pure_helpers():
    import math

    from repro.linalg import BlockCyclicDistribution, TiledMatrix, yukawa_blocksparse

    a = yukawa_blocksparse(4, target_tile=24, seed=0)
    m = TiledMatrix(256, 128, BlockCyclicDistribution.for_ranks(4), synthetic=True)
    owner = m.rank_of  # the idiomatic distribution function
    e = ttg.Edge("e", key_type=int, value_type=int)
    src = ttg.make_tt(_noop, [], [e], name="SRC", keymap=lambda k: owner(k, k),
                      cost=lambda key: float(a.nnz_elements()))
    dst = ttg.make_tt(_noop, [e], [], name="DST", keymap=lambda k: k % 4,
                      priomap=lambda k: math.floor(k))
    g = ttg.TaskGraph([src, dst], name="g")
    assert findings_for(g, "TTG011") == []
    # The same capture in a keymap is a finding: the exemption is the role.
    dst.set_keymap(lambda k: len(a.block_keys()) % 4)
    fs = findings_for(g, "TTG011")
    assert [f.location for f in fs] == ["g/DST.keymap"]
    assert "mutable data (BlockSparseMatrix) as 'a'" in fs[0].message


# -------------------------------------------------------------------- waivers


def test_template_waiver_suppresses_rule():
    g, t = _impure_graph()
    assert len(findings_for(g, "TTG011")) == 2
    t.lint_waive("TTG011")
    assert "TTG011" not in ids_of(lint_graph(g))


def test_lint_waive_rejects_unknown_rule_id():
    # A typo ("O" for "0") must not be accepted as a waiver of nothing.
    t = ttg.make_tt(_noop, [], [], name="T")
    with pytest.raises(GraphConstructionError, match="'TTG0O1'"):
        t.lint_waive("TTG0O1")
    with pytest.raises(GraphConstructionError, match="'SAN001'"):
        t.lint_waive("TTG001", "SAN001")  # sanitizer checks are not lint
    assert t._lint_waivers == frozenset()


# ----------------------------------------------------- strict mode / validate


def _broken_graph():
    """Graph with one error-severity finding (TTG003)."""
    ei = ttg.Edge("ik", key_type=int)
    es = ttg.Edge("sk", key_type=str)
    a = ttg.make_tt(_noop, [], [ei], name="A")
    b = ttg.make_tt(_noop, [], [es], name="B")
    c = ttg.make_tt(_noop, [ei, es], [], name="C")
    return ttg.TaskGraph([a, b, c])


def test_strict_make_raises_with_rule_id():
    with pytest.raises(GraphConstructionError) as exc:
        Executable.make(_broken_graph(), _backend(), strict=True)
    assert exc.value.rule == "TTG003"
    assert "TTG003" in str(exc.value)


def test_default_make_warns_and_proceeds():
    with pytest.warns(RuntimeWarning, match="TTG lint: TTG003"):
        ex = Executable.make(_broken_graph(), _backend())
    assert any(f.rule.id == "TTG003" for f in ex.findings)
    assert ex.sanitizer is None  # not armed unless strict/sanitize


def test_clean_graph_strict_make_passes():
    e = ttg.Edge("ab", key_type=int, value_type=int)
    a = ttg.make_tt(_noop, [], [e], name="A", keymap=lambda k: k % 4)
    b = ttg.make_tt(_noop, [e], [], name="B", keymap=lambda k: 0)
    ex = Executable.make(ttg.TaskGraph([a, b]), _backend(), strict=True)
    assert ex.findings == []
    assert ex.sanitizer is not None and ex.sanitizer.strict


def test_strict_executable_keeps_map_warnings():
    # TTG011 is a warning: strict mode raises on errors only.
    g, t = _impure_graph()
    ex = Executable.make(g, _backend(), strict=True)
    assert [f.location for f in ex.findings if f.rule.id == "TTG011"] == [
        "g/T.keymap", "g/T.priomap"]
    ex.invoke(g.tts[0], 0)
    ex.fence()
    assert ex.task_counts["A"] == 1


def test_default_executable_keeps_ttg011_silently():
    g, _ = _impure_graph()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ex = g.executable(_backend())
    assert "TTG011" in ids_of(ex.findings)
    assert not any("TTG011" in str(w.message) for w in caught)


def test_validate_reports_ttg011():
    g, _ = _impure_graph()
    out = g.validate(nranks=2)
    assert [s for s in out if s.startswith("TTG011")] == [
        "TTG011 [warning] g/T.keymap: captures mutable data (dict) as 'placement'",
        "TTG011 [warning] g/T.priomap: captures live runtime object "
        "(Telemetry) as 'tel'",
    ]


def test_validate_wraps_linter():
    e = ttg.Edge("unfed", key_type=int)
    sink = ttg.make_tt(_noop, [e], [], name="SINK")
    out = ttg.TaskGraph([sink], name="g").validate()
    assert len(out) == 1
    assert out[0].startswith("TTG001 [info] g/SINK.in0:")


def test_lint_waive_is_chainable():
    e = ttg.Edge("unfed", key_type=int)
    sink = ttg.make_tt(_noop, [e], [], name="SINK").lint_waive("TTG001")
    assert lint_graph(ttg.TaskGraph([sink])) == []
