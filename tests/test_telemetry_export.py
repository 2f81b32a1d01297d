"""Exporters: Chrome trace schema validity, JSONL round-trip."""

import json

import numpy as np
import pytest

from repro.apps.cholesky import cholesky_ttg
from repro.linalg import BlockCyclicDistribution, TiledMatrix, spd_matrix
from repro.runtime import ParsecBackend
from repro.sim.cluster import Cluster, HAWK
from repro.telemetry.events import EventBus, Telemetry
from repro.telemetry.export import (
    event_from_json,
    event_to_json,
    read_jsonl,
    to_chrome_events,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture(scope="module")
def cholesky_telemetry():
    """One instrumented 2-rank Cholesky run (b=64 so splitmd triggers)."""
    n, b, nodes = 256, 64, 2
    a = spd_matrix(n, seed=7)
    A = TiledMatrix.from_dense(
        a, b, BlockCyclicDistribution.for_ranks(nodes), lower_only=True
    )
    tel = Telemetry(nranks=nodes, capacity=None)
    backend = ParsecBackend(Cluster(HAWK, nodes), telemetry=tel)
    res = cholesky_ttg(A, backend)
    L = np.tril(res.L.to_dense())
    assert np.allclose(L, np.linalg.cholesky(a))
    return tel


def test_chrome_trace_is_schema_valid(cholesky_telemetry):
    trace = to_chrome_trace(cholesky_telemetry)
    assert validate_chrome_trace(trace) == []
    assert trace["displayTimeUnit"] == "ms"
    assert len(trace["traceEvents"]) > 0


def test_chrome_trace_has_metadata_and_all_phases(cholesky_telemetry):
    events = to_chrome_events(cholesky_telemetry)
    phases = {e["ph"] for e in events}
    assert {"M", "X", "i", "C"} <= phases
    names = {e["args"]["name"] for e in events if e["ph"] == "M"
             and e["name"] == "process_name"}
    assert names == {"rank 0", "rank 1"}
    thread_names = {e["args"]["name"] for e in events if e["ph"] == "M"
                    and e["name"] == "thread_name"}
    assert "am-server" in thread_names
    assert any(n.startswith("worker") for n in thread_names)


def test_splitmd_phases_exported_as_flow_arrows(cholesky_telemetry):
    events = to_chrome_events(cholesky_telemetry)
    spans = [e for e in events if e["ph"] == "X"]
    metas = [e for e in spans if e["name"].startswith("splitmd:meta:")]
    rmas = [e for e in spans if e["name"].startswith("splitmd:rma:")]
    assert metas and rmas
    flow_phases = [e["ph"] for e in events if e["name"] == "flow"]
    assert "s" in flow_phases and "f" in flow_phases
    # Each flow chain carries an int id; terminating arrows bind at end.
    finals = [e for e in events if e["ph"] == "f"]
    assert all(isinstance(e["id"], int) and e["bp"] == "e" for e in finals)


def test_write_chrome_trace_file_round_trip(cholesky_telemetry, tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), cholesky_telemetry)
    with open(path) as fh:
        assert validate_chrome_trace(json.load(fh)) == []


def test_validator_rejects_garbage():
    assert validate_chrome_trace(42) != []
    assert validate_chrome_trace({"nope": []}) != []
    bad = [
        {"ph": "X", "pid": 0, "tid": 0, "ts": 0.0, "dur": 1.0},       # no name
        {"name": "x", "ph": "?", "pid": 0, "tid": 0, "ts": 0.0},      # bad ph
        {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": -1, "dur": 1},
        {"name": "x", "ph": "s", "pid": 0, "tid": 0, "ts": 0.0},      # no id
        {"name": "x", "ph": "C", "pid": 0, "tid": 0, "ts": 0.0,
         "args": {"v": "str"}},
    ]
    problems = validate_chrome_trace(bad)
    assert len(problems) >= 5


def test_jsonl_round_trip(cholesky_telemetry, tmp_path):
    path = tmp_path / "events.jsonl"
    n = write_jsonl(str(path), cholesky_telemetry)
    assert n == len(cholesky_telemetry.bus)
    bus2 = read_jsonl(str(path))
    assert len(bus2) == n
    orig = cholesky_telemetry.bus.events()
    back = bus2.events()
    assert [e.name for e in orig] == [e.name for e in back]
    assert [type(e).__name__ for e in orig] == [type(e).__name__ for e in back]
    # And the re-ingested bus exports an identical (valid) trace.
    assert validate_chrome_trace(to_chrome_trace(bus2)) == []


def test_event_json_codec_all_kinds():
    bus = EventBus(capacity=None)
    s = bus.complete("s", 1, 2, 0.5, 1.5, cat="task", flow=9, args={"k": "v"})
    i = bus.instant("i", 0, cat="dep", src="A")
    c = bus.counter("c", 0, depth=2.0)
    for ev in (s, i, c):
        assert event_from_json(json.loads(json.dumps(event_to_json(ev)))) == ev
    with pytest.raises(ValueError):
        event_from_json({"type": "alien"})
    with pytest.raises(TypeError):
        event_to_json(object())
