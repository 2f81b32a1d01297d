"""Metrics registry: instrument caching, labels, rollups."""

import pytest

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_inc_and_negative_rejected():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_instruments_cached_by_name_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("tasks", template="POTRF")
    b = reg.counter("tasks", template="POTRF")
    c = reg.counter("tasks", template="TRSM")
    assert a is b and a is not c
    # Label order is irrelevant; values coerce to strings.
    assert reg.counter("m", rank=1, device="cpu") is reg.counter(
        "m", device="cpu", rank="1"
    )


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_histogram_stats_and_buckets():
    h = Histogram()
    for v in (1e-6, 2e-6, 3e-6):
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 3
    assert snap["total"] == pytest.approx(6e-6)
    assert snap["mean"] == pytest.approx(2e-6)
    assert snap["min"] == pytest.approx(1e-6)
    assert snap["max"] == pytest.approx(3e-6)
    assert sum(h.buckets.values()) == 3


def test_rollup_by_label():
    reg = MetricsRegistry()
    reg.counter("tasks", template="POTRF", rank=0).inc(2)
    reg.counter("tasks", template="POTRF", rank=1).inc(3)
    reg.counter("tasks", template="GEMM", rank=0).inc(7)
    reg.counter("tasks").inc(99)  # no 'template' label: ignored
    assert reg.rollup("tasks", by="template") == {"POTRF": 5.0, "GEMM": 7.0}
    assert reg.rollup("tasks", by="rank") == {"0": 9.0, "1": 3.0}


def test_rollup_includes_histogram_totals():
    reg = MetricsRegistry()
    reg.histogram("task_time", template="A").observe(2.0)
    reg.histogram("task_time", template="A").observe(3.0)
    assert reg.rollup("task_time", by="template") == {"A": 5.0}


def test_as_dict_keys_and_kinds():
    reg = MetricsRegistry()
    reg.counter("n", proto="eager").inc()
    reg.gauge("depth").set(4)
    d = reg.as_dict()
    assert d["n{proto=eager}"] == {"value": 1.0, "kind": "counter"}
    assert d["depth"]["kind"] == "gauge"


def test_collect_filters_and_get():
    reg = MetricsRegistry()
    reg.counter("x", k="1").inc()
    reg.counter("z").inc()
    rows = reg.collect("x")
    assert len(rows) == 1 and rows[0][0] == "x" and rows[0][1] == {"k": "1"}
    assert reg.get("z").value == 1
    assert reg.get("missing") is None
    assert isinstance(reg.get("x", k="1"), Counter)
    assert isinstance(reg.gauge("gg"), Gauge)
