"""CLI: record/report/export/diff/validate subcommands."""

import io
import json
import textwrap

import pytest

from repro.telemetry.cli import main


SCRIPT = textwrap.dedent(
    """
    from repro import core as ttg
    from repro.runtime import ParsecBackend
    from repro.sim.cluster import Cluster, HAWK

    e = ttg.Edge("x", key_type=int, value_type=int)

    def src(key, outs):
        for k in range(6):
            outs.send(0, k, k)

    def snk(key, v, outs):
        print("got", key)

    A = ttg.make_tt(src, [], [e], name="A", keymap=lambda k: 0)
    B = ttg.make_tt(snk, [e], [], name="B", keymap=lambda k: k % 2,
                    cost=lambda k, v: 100.0)
    ex = ttg.TaskGraph([A, B], name="pipeline").executable(
        ParsecBackend(Cluster(HAWK, 2)))
    ex.invoke(A, 0)
    ex.fence()
    """
)


@pytest.fixture()
def script(tmp_path):
    p = tmp_path / "run_pipeline.py"
    p.write_text(SCRIPT)
    return str(p)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), stream=out)
    return code, out.getvalue()


def test_record_exports_all_artifacts(script, tmp_path):
    trace = tmp_path / "trace.json"
    jsonl = tmp_path / "events.jsonl"
    counters = tmp_path / "counters.json"
    code, text = run_cli(
        "record", script, "--export", str(trace), "--jsonl", str(jsonl),
        "--counters", str(counters), "--report",
    )
    assert code == 0
    assert "1 run(s)" in text
    assert "pipeline@parsec(nranks=2)" in text
    assert "valid Chrome trace" in text
    assert "critical path:" in text
    assert trace.exists() and jsonl.exists() and counters.exists()
    data = json.loads(trace.read_text())
    assert any(e.get("name") == "A" for e in data["traceEvents"])


def test_record_verbose_shows_script_stdout(script):
    code, text = run_cli("record", script, "--verbose")
    assert code == 0
    assert "| got" in text


def test_record_list_and_graph_selection(script):
    code, text = run_cli("record", script, "--list")
    assert code == 0 and "[0]" in text
    code, text = run_cli("record", script, "--graph", "5")
    assert code == 1 and "out of range" in text


def test_record_crashing_script(tmp_path):
    p = tmp_path / "boom.py"
    p.write_text("raise RuntimeError('nope')\n")
    code, text = run_cli("record", str(p))
    assert code == 1 and "script failed" in text and "nope" in text


def test_record_script_with_no_graphs(tmp_path):
    p = tmp_path / "empty.py"
    p.write_text("x = 1\n")
    code, text = run_cli("record", str(p), "--report")
    assert code == 1 and "nothing recorded" in text


def test_report_and_critical_path_from_jsonl(script, tmp_path):
    jsonl = tmp_path / "ev.jsonl"
    code, _ = run_cli("record", script, "--jsonl", str(jsonl))
    assert code == 0
    code, text = run_cli("report", str(jsonl))
    assert code == 0 and "template" in text and "B" in text
    lines = text.splitlines()
    assert any(line.startswith("critical path:") for line in lines)
    assert "A[0]" in text
    # The byte split: one row per channel, the AM channel moved bytes.
    header = lines.index(next(ln for ln in lines if ln.startswith("channel")))
    assert lines[header].split() == ["channel", "bytes", "share", "%"]
    assert any(ln.split()[0] == "am" and int(ln.split()[1]) > 0
               for ln in lines[header + 1:] if ln.strip())


def test_export_and_validate_round_trip(script, tmp_path):
    jsonl = tmp_path / "ev.jsonl"
    trace = tmp_path / "out.json"
    run_cli("record", script, "--jsonl", str(jsonl))
    code, text = run_cli("export", str(jsonl), "-o", str(trace))
    assert code == 0 and "wrote" in text
    code, text = run_cli("validate", str(trace))
    assert code == 0 and "valid Chrome trace" in text


def test_validate_rejects_bad_trace(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
    code, text = run_cli("validate", str(bad))
    assert code == 1 and "name" in text


def test_cli_validate_json_on_trace(tmp_path):
    from repro.telemetry import Telemetry, write_chrome_trace
    from repro.telemetry.export import TRACE_SCHEMA_VERSION

    tel = Telemetry(nranks=1)
    tel.bus.complete("t", 0, 0, 0.0, 1.0)
    path = str(tmp_path / "t.trace.json")
    write_chrome_trace(path, tel)
    code, text = run_cli("validate", path, "--json")
    assert code == 0
    result = json.loads(text)
    assert result["kind"] == "trace"
    assert result["schema_version"] == TRACE_SCHEMA_VERSION


def _event_log(path):
    from repro.telemetry import Telemetry, write_jsonl

    tel = Telemetry(nranks=1)
    tel.bus.complete("t", 0, 0, 0.0, 1.0)
    tel.bus.complete("t", 0, 0, 1.0, 2.0)
    assert write_jsonl(str(path), tel) == 2


def _old_ledger(path):
    head = {"type": "ledger_open", "schema": "repro.telemetry/ledger",
            "version": 2, "run": "r1", "seq": 0}
    path.write_text(json.dumps(head) + "\n"
                    + json.dumps({"type": "ledger_close", "run": "r1",
                                  "seq": 1}) + "\n")


@pytest.mark.parametrize("make,hint", [
    (_event_log, "python -m repro.telemetry export"),
    (_old_ledger, "not a Chrome trace"),
    (None, "cannot read"),
], ids=["jsonl-log", "ledger", "missing"])
def test_validate_rejects_non_trace_in_one_line(tmp_path, make, hint):
    path = tmp_path / "input.jsonl"
    if make is not None:
        make(path)
    code, text = run_cli("validate", str(path))
    assert code == 1
    assert text.startswith(f"{path}: INVALID: ") and text.count("\n") == 1
    assert hint in text
    code, text = run_cli("validate", str(path), "--json")
    assert code == 1
    result = json.loads(text)
    assert result["file"] == str(path) and result["valid"] is False
    assert len(result["problems"]) == 1 and hint in result["problems"][0]


@pytest.mark.parametrize("command", ["report", "export", "diff"])
@pytest.mark.parametrize("content", [None, "[build-system]\nrequires = []\n"],
                         ids=["missing", "not-json"])
def test_unreadable_input_is_one_line_not_a_traceback(tmp_path, command,
                                                      content):
    path = tmp_path / "input.jsonl"
    if content is not None:
        path.write_text(content)
    argv = {"report": [str(path)],
            "export": [str(path), "-o", str(tmp_path / "t.json")],
            "diff": [str(path), str(path)]}[command]
    code, text = run_cli(command, *argv)
    assert code == 1
    assert text.count("\n") == 1
    assert text.startswith(f"{command}: {path}: ")
    assert "Traceback" not in text


def test_no_events_mode_records_metrics_only(script, tmp_path):
    counters = tmp_path / "c.json"
    code, text = run_cli("record", script, "--no-events",
                         "--counters", str(counters))
    assert code == 0 and "0 events" in text
    data = json.loads(counters.read_text())
    assert any(k.startswith("tasks{") for k in data["counters"])


def test_validate_fails_on_truncated_recording(script, tmp_path):
    trace = tmp_path / "trunc.json"
    code, _ = run_cli("record", script, "--capacity", "3",
                      "--export", str(trace))
    assert code == 0
    data = json.loads(trace.read_text())
    assert sum(data["otherData"]["dropped"]) > 0

    code, text = run_cli("validate", str(trace))
    assert code == 1
    assert "evicted" in text and "--allow-drops" in text

    code, text = run_cli("validate", str(trace), "--allow-drops")
    assert code == 0 and "drops allowed" in text


def test_validate_accepts_complete_recording_without_flag(script, tmp_path):
    trace = tmp_path / "full.json"
    run_cli("record", script, "--export", str(trace))
    code, text = run_cli("validate", str(trace))
    assert code == 0 and "valid Chrome trace" in text and "allowed" not in text


def test_report_warns_on_drops_from_capacity_limited_run(script, tmp_path):
    jsonl = tmp_path / "ev.jsonl"
    code, text = run_cli("record", script, "--capacity", "3",
                         "--jsonl", str(jsonl), "--report")
    assert code == 0
    assert "WARNING" in text and "evicted" in text
