"""CLI: record/report/export/whatif subcommands."""

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
    code, text = run_cli(
        "record", script, "--export", str(trace), "--jsonl", str(jsonl),
        "--report",
    )
    assert code == 0
    assert "1 run(s)" in text
    assert "pipeline@parsec(nranks=2)" in text
    assert "valid Chrome trace" in text
    assert "critical path:" in text
    assert trace.exists() and jsonl.exists()
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
    from repro.telemetry.export import validate_chrome_trace

    jsonl = tmp_path / "ev.jsonl"
    trace = tmp_path / "out.json"
    run_cli("record", script, "--jsonl", str(jsonl))
    code, text = run_cli("export", str(jsonl), "-o", str(trace))
    assert code == 0 and "wrote" in text and "WARNING" not in text
    data = json.loads(trace.read_text())
    assert validate_chrome_trace(data) == []
    assert not any(data["otherData"]["dropped"])


_JSONL_LOG = "".join(json.dumps(
    {"type": "span", "name": "t", "cat": "", "rank": 0, "tid": 0,
     "start": float(i), "end": i + 1.0, "args": {}}) + "\n" for i in range(2))

@pytest.mark.parametrize("command,content", [
    pytest.param(command, content, id=f"{cid}-{command}")
    for cid, content in [("missing", None),
                         ("not-json", "[build-system]\nrequires = []\n")]
    for command in ("export", "report", "whatif")
] + [pytest.param("whatif", _JSONL_LOG, id="jsonl-log-whatif")])
def test_unreadable_input_is_one_line_not_a_traceback(tmp_path, command,
                                                      content):
    path = tmp_path / "input.jsonl"
    if content is not None:
        path.write_text(content)
    argv = {"report": [str(path)],
            "export": [str(path), "-o", str(tmp_path / "t.json")],
            "whatif": [str(path)]}[command]
    code, text = run_cli(command, *argv)
    assert code == 1
    assert text.count("\n") == 1
    assert text.startswith(f"{command}: {path}: ")
    assert "Traceback" not in text


@pytest.mark.parametrize("capacity", ["0", "-5"])
def test_record_refuses_capacity_below_one(script, tmp_path, capsys,
                                           capacity):
    """A ring of no events would write a complete-looking log of nothing:
    refused at parse time, before the script runs."""
    jsonl = tmp_path / "ev.jsonl"
    with pytest.raises(SystemExit) as exc:
        run_cli("record", script, "--capacity", capacity,
                "--jsonl", str(jsonl))
    assert exc.value.code == 2  # an argparse usage error
    assert f"--capacity: must be >= 1, got {capacity}" in capsys.readouterr().err
    assert not jsonl.exists()


def test_report_warns_on_drops_from_capacity_limited_run(script, tmp_path):
    jsonl = tmp_path / "ev.jsonl"
    code, text = run_cli("record", script, "--capacity", "3",
                         "--jsonl", str(jsonl), "--report")
    assert code == 0
    assert "WARNING" in text and "evicted" in text

    # The log keeps the eviction counts: replaying it is just as loud.
    code, text = run_cli("report", str(jsonl))
    assert code == 0
    assert "WARNING" in text and "evicted" in text
    assert "(dropped: 0)" not in text
    trace = tmp_path / "t.json"
    code, text = run_cli("export", str(jsonl), "-o", str(trace))
    assert code == 0
    assert text.startswith("WARNING: ") and "evicted" in text
    assert sum(json.loads(trace.read_text())["otherData"]["dropped"]) > 0
