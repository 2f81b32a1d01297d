"""The trace differ: run alignment, attribution ranking, loaders, CLI."""

import json

import pytest

from repro.bench.history import BenchHistory, BenchRecord
from repro.telemetry.diff import (
    RunView,
    diff_counters,
    diff_records,
    diff_runs,
    load_view,
    select_record,
    sniff_payload_kind,
)
from repro.telemetry.events import EventBus, TID_RT, Telemetry


def _task(bus, template, key, start, end, rank=0, tid=0):
    bus.complete(template, rank, tid, start, end, cat="task",
                 args={"key": repr(key), "template": template})


def _dep(bus, src, dst):
    bus.instant("dep", 0, TID_RT, cat="dep", src=src, dst=dst)


def _diamond(b_end=3.0):
    """A -> (B, C) -> D; stretching B's arm models a slowdown."""
    bus = EventBus(capacity=None)
    _task(bus, "A", 0, 0.0, 1.0)
    _task(bus, "B", 0, 1.0, b_end, tid=1)
    _task(bus, "C", 0, 1.0, 2.0, rank=1)
    _task(bus, "D", 0, b_end, b_end + 1.0)
    _dep(bus, "A[0]", "B[0]")
    _dep(bus, "A[0]", "C[0]")
    _dep(bus, "B[0]", "D[0]")
    _dep(bus, "C[0]", "D[0]")
    return bus


def _rec(makespan, templates, seed=0, **extra):
    return BenchRecord(app="potrf", config={"n": 512}, seed=seed,
                       makespan=makespan, gflops=100.0,
                       tasks_by_template=dict(templates), **extra)


# ----------------------------------------------------------- counter core


def test_diff_counter_payloads_aligns_missing_keys():
    rows = diff_counters({"x": 1.0, "y": 2.0}, {"y": 5.0, "z": 3.0})
    assert rows == [("x", 1.0, 0.0, -1.0), ("y", 2.0, 5.0, 3.0),
                    ("z", 0.0, 3.0, 3.0)]


# -------------------------------------------------------------- run views


def test_runview_from_bus_carries_spans_and_critical_path():
    view = RunView.from_bus(_diamond(), label="base")
    assert view.has_spans
    assert view.makespan == pytest.approx(4.0)
    assert view.templates["B"].total == pytest.approx(2.0)
    assert [lab for lab, _ in view.critical_path] == ["A[0]", "B[0]", "D[0]"]
    assert 0 in view.ranks and 1 in view.ranks


def test_runview_from_record_counts_only():
    rec = _rec(0.01, {"GEMM": 8, "TRSM": 4},
               bytes_by_protocol={"eager": 64.0},
               counters={"c.x": 2.0})
    view = RunView.from_record(rec)
    assert not view.has_spans
    assert view.templates["GEMM"].count == 8
    assert view.bytes_by_protocol == {"eager": 64.0}
    assert view.counters == {"c.x": 2.0}
    assert "potrf seed 0" in view.label


# ------------------------------------------------------------- the differ


def test_diff_runs_attributes_the_stretched_template():
    a = RunView.from_bus(_diamond(3.0), label="base")
    b = RunView.from_bus(_diamond(4.5), label="slow")
    d = diff_runs(a, b)
    assert d.has_spans
    assert d.makespan_delta == pytest.approx(1.5)
    ranked = d.ranked_templates()
    assert ranked[0].template == "B"
    assert ranked[0].delta == pytest.approx(1.5)
    shares = dict(d.attribution())
    # B's span total moved by exactly the makespan delta: share 1.0; no
    # opposite-direction mover is attributed.
    assert shares["B"] == pytest.approx(1.0)
    assert "C" not in shares
    text = d.format()
    assert "run diff: A = base   B = slow" in text
    assert "attribution" in text


def test_diff_runs_critical_path_churn():
    a = RunView.from_bus(_diamond(3.0), label="a")
    # Stretch C past B: the path detours through C.
    bus = EventBus(capacity=None)
    _task(bus, "A", 0, 0.0, 1.0)
    _task(bus, "B", 0, 1.0, 3.0, tid=1)
    _task(bus, "C", 0, 1.0, 5.0, rank=1)
    _task(bus, "D", 0, 5.0, 6.0)
    _dep(bus, "A[0]", "B[0]")
    _dep(bus, "A[0]", "C[0]")
    _dep(bus, "B[0]", "D[0]")
    _dep(bus, "C[0]", "D[0]")
    b = RunView.from_bus(bus, label="b")
    d = diff_runs(a, b)
    assert d.cp_entered == ["C[0]"]
    assert d.cp_left == ["B[0]"]
    common = [lab for lab, *_ in d.cp_common]
    assert common == ["A[0]", "D[0]"]
    assert "critical path" in d.format()


def test_diff_records_counts_rank_by_count_delta():
    a = _rec(0.010, {"GEMM": 8, "TRSM": 4})
    b = _rec(0.013, {"GEMM": 14, "TRSM": 4})
    d = diff_records(a, b)
    assert not d.has_spans
    assert d.attribution() == []          # no span totals to attribute
    assert d.ranked_templates()[0].template == "GEMM"
    assert d.ranked_templates()[0].count_delta == 6


def test_diff_as_dict_schema():
    a = RunView.from_bus(_diamond(3.0), label="a")
    b = RunView.from_bus(_diamond(4.0), label="b")
    payload = diff_runs(a, b).as_dict()
    assert payload["schema"] == "repro.telemetry/diff-v1"
    for section in ("makespan", "templates", "attribution",
                    "bytes_by_protocol", "ranks", "critical_path",
                    "counters"):
        assert section in payload
    assert payload["templates"][0]["template"] == "B"


# ---------------------------------------------------------------- loaders


def test_sniff_payload_kind(tmp_path):
    from repro.telemetry.export import write_chrome_trace, write_jsonl

    tel = Telemetry(nranks=1)
    tel.bus.complete("T", 0, 0, 0.0, 1.0, cat="task",
                     args={"key": "0", "template": "T"})
    jsonl = str(tmp_path / "run.jsonl")
    trace = str(tmp_path / "run.trace.json")
    write_jsonl(jsonl, tel)
    write_chrome_trace(trace, tel)
    hist = BenchHistory("potrf", [_rec(0.01, {"T": 1})])
    bench = str(hist.save(directory=str(tmp_path)))

    assert sniff_payload_kind(jsonl) == "jsonl"
    assert sniff_payload_kind(bench) == "bench-history"

    bad = tmp_path / "bad.txt"
    bad.write_text("not json at all\n")
    other = tmp_path / "other.json"
    other.write_text('{"counters": {}}\n')
    for path in (trace, str(bad), str(other)):
        with pytest.raises(ValueError, match="not a JSONL event log or a "
                           "BENCH_"):
            sniff_payload_kind(path)


def test_select_record():
    recs = [_rec(0.010, {}, seed=0),
            _rec(0.012, {}, seed=1),
            _rec(0.011, {}, seed=2),
            _rec(0.015, {}, seed=0)]
    assert select_record(recs, "last") is recs[-1]
    assert select_record(recs, "seed:0") is recs[-1]    # last of that seed
    assert select_record(recs, "index:1") is recs[1]
    with pytest.raises(ValueError):
        select_record([], "last")
    with pytest.raises(ValueError):
        select_record(recs, "seed:77")
    with pytest.raises(ValueError, match="index 99 out of range.* 4 record"):
        select_record(recs, "index:99")
    with pytest.raises(ValueError):
        select_record(recs, "bogus")


def test_load_view_dispatch(tmp_path):
    from repro.telemetry.export import write_jsonl

    tel = Telemetry(nranks=1)
    tel.bus.complete("T", 0, 0, 0.0, 1.0, cat="task",
                     args={"key": "0", "template": "T"})
    jsonl = str(tmp_path / "run.jsonl")
    write_jsonl(jsonl, tel)
    view = load_view(jsonl)
    assert view.has_spans and "T" in view.templates

    hist = BenchHistory("potrf", [_rec(0.01, {"T": 1}),
                                  _rec(0.02, {"T": 2})])
    bench = str(hist.save(directory=str(tmp_path)))
    assert load_view(bench, selector="last").templates["T"].count == 2
    assert load_view(bench, selector="index:0").templates["T"].count == 1


# --------------------------------------------------------------------- CLI


def _cli(*argv):
    import io

    from repro.telemetry.cli import main

    out = io.StringIO()
    code = main(list(argv), stream=out)
    return code, out.getvalue()


def test_cli_diff_on_histories(tmp_path):
    # Built as the watchdog writes it: plain records, none marked.
    hist = BenchHistory("potrf", [_rec(0.010, {"GEMM": 8}),
                                  _rec(0.013, {"GEMM": 8})])
    path = str(hist.save(directory=str(tmp_path)))
    code, text = _cli("diff", path, path)
    assert code == 0
    assert "run diff" in text
    code, text = _cli("diff", path, path, "--json")
    assert code == 0
    assert json.loads(text)["schema"] == "repro.telemetry/diff-v1"


def test_cli_diff_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("nope\n")
    code, text = _cli("diff", str(bad), str(bad))
    assert code == 1
    assert "not a JSON" in text

