"""The run ledger: life-cycle records, crash recovery, replay, validation.

A ledger must (a) replay to the exact final state of the run, (b) stay
readable when the writer is killed mid-run (torn tail dropped, last
flushed phase recovered), and (c) cost nothing when not attached.
"""

import json
import os
from dataclasses import replace

import pytest

from repro import core as ttg
from repro.runtime import ParsecBackend
from repro.sim import Cluster, HAWK
from repro.telemetry.ledger import (
    LEDGER_SCHEMA,
    LEDGER_VERSION,
    LedgerError,
    LedgerWriter,
    ledger_capture,
    new_run_id,
    read_ledger,
    replay,
    replay_path,
    validate_ledger,
)


#: The run-loop axis of the end-to-end tests.  ``"seq"`` runs the ledger
#: alone; ``"sharded"`` -- the row id from when these rows ran on the
#: deleted sharded engine -- also fires the loop's one periodic hook,
#: ``on_checkpoint``, before every event, so the ledger records a run whose
#: loop has an armed observer.
LOOPS = ("seq", "sharded")


def _pipeline_backend(nranks=4, keys=64, loop="seq"):
    """A small two-stage graph that fans out over all ranks."""
    backend = ParsecBackend(Cluster(HAWK, nranks))
    if loop == "sharded":
        backend.engine.on_checkpoint = lambda now, n: None
        backend.engine.checkpoint_every = 1
    e = ttg.Edge("e", key_type=int, value_type=int)
    results = {}

    def gen(key, outs):
        outs.send(0, key, key * key)

    def sink(key, val, outs):
        results[key] = val

    g = ttg.make_tt(gen, [], [e], name="GEN", keymap=lambda k: k % nranks)
    s = ttg.make_tt(sink, [e], [], name="SINK",
                    keymap=lambda k: (k + 1) % nranks)
    ex = ttg.TaskGraph([g, s]).executable(backend)
    return backend, ex, g, results, keys


def _run_with_ledger(tmp_path, loop="seq"):
    path = str(tmp_path / "run.ledger.jsonl")
    backend, ex, gen, results, keys = _pipeline_backend(loop=loop)
    led = LedgerWriter(path, run_id="test-run")
    backend.attach_ledger(led)
    for k in range(keys):
        ex.invoke(gen, k)
    ex.fence()
    backend.close_ledger()
    assert len(results) == keys
    return path, backend


# ------------------------------------------------------------- writer basics


def test_writer_emits_header_and_monotonic_seq(tmp_path):
    path = str(tmp_path / "w.ledger.jsonl")
    led = LedgerWriter(path, run_id="r1", meta={"app": "unit"})
    led.phase("build", sim=0.0)
    led.progress(1.0, tasks_done=1, by_template={"T": 1})
    led.close(2.0, makespan=2.0)
    records = read_ledger(path)
    head = records[0]
    assert head["type"] == "ledger_open"
    assert head["schema"] == LEDGER_SCHEMA
    assert head["version"] == LEDGER_VERSION
    assert head["app"] == "unit"
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert all(r["run"] == "r1" for r in records)
    assert validate_ledger(records) == []


def test_writer_close_is_idempotent_and_seals(tmp_path):
    path = str(tmp_path / "w.ledger.jsonl")
    led = LedgerWriter(path, run_id="r1")
    led.close(1.0)
    led.close(1.0)  # second close: no-op, no duplicate record
    assert sum(1 for r in read_ledger(path)
               if r["type"] == "ledger_close") == 1
    with pytest.raises(LedgerError):
        led.emit("phase", phase="build")


def test_new_run_ids_unique():
    ids = {new_run_id("t") for _ in range(100)}
    assert len(ids) == 100
    assert all("/" not in i and " " not in i for i in ids)


# ------------------------------------------------------ end-to-end round trip


@pytest.mark.parametrize("loop", LOOPS)
def test_run_roundtrip_replays_to_final_state(tmp_path, loop):
    path, backend = _run_with_ledger(tmp_path, loop=loop)
    records = read_ledger(path)
    assert validate_ledger(records) == []
    snap = replay(records)
    assert snap.complete
    assert snap.run_id == "test-run"
    assert snap.schema_version == LEDGER_VERSION
    # The final snapshot must agree with the backend's own counters.
    assert snap.tasks_done == sum(snap.by_template.values()) \
        == backend.stats.tasks_executed
    assert snap.tasks_done > 0
    assert snap.by_template == backend.stats.tasks_by_template
    assert snap.by_template["GEN"] == 64
    assert snap.by_template["SINK"] == 64
    assert snap.sim == pytest.approx(backend.stats.makespan)
    assert snap.phases_seen == ["build", "fence", "execute", "drain"]
    # Replaying from the file must land on the same state.
    assert replay_path(path) == snap


def test_sharded_ledger_carries_window_and_quiescence(tmp_path):
    """Older ledgers carry records nothing writes any more: per-window
    ``window`` and ``quiescence`` health records of the deleted sharded
    engine, and ``heartbeat`` records of the deleted mid-run progress
    stream.  They stay valid, and replay skips them to the state the other
    records describe."""
    path, _ = _run_with_ledger(tmp_path)
    records = read_ledger(path)
    old = []
    for rec in records:
        old.append(rec)
        if rec["type"] == "phase":
            old.append({"type": "heartbeat", "run": rec["run"],
                        "sim": rec["sim"], "events": 7, "host": 1.0})
            old.append({"type": "window", "run": rec["run"], "width": 1e-6,
                        "lookahead": 1e-6, "events_by_shard": [3, 1, 0, 2],
                        "sim": rec["sim"]})
            old.append({"type": "quiescence", "run": rec["run"],
                        "ranks_quiescent": 1, "nranks": 4})
    for seq, rec in enumerate(old):
        rec["seq"] = seq
    assert validate_ledger(old) == []
    assert replay(old) == replace(replay(records), records=len(old))


def test_seq_ledger_has_no_window_records(tmp_path):
    path, _ = _run_with_ledger(tmp_path)
    kinds = {r["type"] for r in read_ledger(path)}
    assert "window" not in kinds and "quiescence" not in kinds


# -------------------------------------------------------------- kill recovery


def test_torn_tail_is_dropped_and_last_snapshot_recovered(tmp_path):
    path, _ = _run_with_ledger(tmp_path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    # Simulate a kill: drop the close, tear the drain's progress record.
    torn = lines[:-2] + [lines[-2][: len(lines[-2]) // 2]]
    truncated = str(tmp_path / "killed.ledger.jsonl")
    with open(truncated, "w") as fh:
        fh.write("\n".join(torn))
    records = read_ledger(truncated)  # must not raise
    assert len(records) == len(torn) - 1
    snap = replay(records)
    assert not snap.complete
    assert snap.phase == "drain"  # the last flushed phase survived
    assert snap.phases_seen == ["build", "fence", "execute", "drain"]
    assert snap.tasks_done == 0  # the torn progress record is gone
    problems = validate_ledger(records)
    assert problems == []  # truncation is not corruption


def test_torn_midfile_line_is_an_error(tmp_path):
    path = str(tmp_path / "corrupt.jsonl")
    led = LedgerWriter(path, run_id="r")
    led.phase("build")
    led.close()
    lines = open(path).read().splitlines()
    lines[1] = lines[1][:10]  # tear a line that is *not* last
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    with pytest.raises(LedgerError):
        read_ledger(path)


# ----------------------------------------------------------------- validation


def test_validate_names_schema_version_in_diagnostics():
    bad = [{"type": "ledger_open", "schema": "wrong", "version": 1,
            "run": "r", "seq": 0},
           {"type": "mystery", "run": "r", "seq": 0},
           {"type": "phase", "phase": "teardown", "run": "other", "seq": 2}]
    problems = validate_ledger(bad)
    assert any("wrong" in p and f"v{LEDGER_VERSION}" in p for p in problems)
    assert any("mystery" in p for p in problems)
    assert any("teardown" in p for p in problems)
    assert any("run id" in p for p in problems)
    assert any("seq" in p for p in problems)
    assert all("v1" in p for p in problems if "record[" in p)


def test_validate_rejects_newer_version():
    head = {"type": "ledger_open", "schema": LEDGER_SCHEMA,
            "version": LEDGER_VERSION + 1, "run": "r", "seq": 0}
    problems = validate_ledger([head])
    assert any("newer" in p for p in problems)


def test_validate_empty_ledger():
    assert validate_ledger([]) == ["empty ledger (no records)"]


# -------------------------------------------------------------- zero overhead


def test_no_ledger_means_no_hooks_and_no_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    backend, ex, gen, results, keys = _pipeline_backend()
    for k in range(keys):
        ex.invoke(gen, k)
    ex.fence()
    assert backend.ledger is None
    assert os.listdir(tmp_path) == []  # not a byte of ledger I/O
    # Attaching a ledger installs no engine hook either.
    backend = _pipeline_backend()[0]
    engine_state = dict(vars(backend.engine))
    backend.attach_ledger(LedgerWriter(str(tmp_path / "a.ledger.jsonl")))
    assert vars(backend.engine) == engine_state
    assert backend.engine.on_checkpoint is None


@pytest.mark.parametrize("loop", LOOPS)
def test_ledger_never_perturbs_virtual_time(tmp_path, loop):
    backend, ex, gen, _, keys = _pipeline_backend()
    for k in range(keys):
        ex.invoke(gen, k)
    bare = ex.fence()
    _, with_ledger = _run_with_ledger(tmp_path, loop=loop)
    assert with_ledger.stats.makespan == bare


# -------------------------------------------------------------------- capture


def test_ledger_capture_writes_one_ledger_per_backend(tmp_path):
    directory = str(tmp_path / "runs")
    with ledger_capture(directory, prefix="cap") as cap:
        backend, ex, gen, results, keys = _pipeline_backend()
        for k in range(keys):
            ex.invoke(gen, k)
        ex.fence()
    assert len(cap.writers) == 1
    files = os.listdir(directory)
    assert len(files) == 1 and files[0].endswith(".ledger.jsonl")
    snap = replay_path(os.path.join(directory, files[0]))
    assert snap.complete
    assert snap.tasks_done == sum(snap.by_template.values()) == 2 * keys
    head = read_ledger(os.path.join(directory, files[0]))[0]
    assert head["nranks"] == 4


# ------------------------------------------------------------------------ CLI


def _cli(*argv):
    import io

    from repro.telemetry.cli import main

    out = io.StringIO()
    code = main(list(argv), stream=out)
    return code, out.getvalue()


def test_cli_validate_ledger_reports_version(tmp_path):
    path, _ = _run_with_ledger(tmp_path)
    code, text = _cli("validate", path)
    assert code == 0
    assert f"schema v{LEDGER_VERSION}" in text
    assert "complete" in text


def test_cli_validate_json_output(tmp_path):
    path, _ = _run_with_ledger(tmp_path)
    code, text = _cli("validate", path, "--json")
    assert code == 0
    result = json.loads(text)
    assert result["valid"] is True
    assert result["kind"] == "ledger"
    assert result["schema_version"] == LEDGER_VERSION
    assert result["supported_version"] == LEDGER_VERSION
    assert result["complete"] is True
    assert result["problems"] == []


def test_cli_validate_json_on_trace(tmp_path):
    from repro.telemetry import Telemetry, write_chrome_trace
    from repro.telemetry.export import TRACE_SCHEMA_VERSION

    tel = Telemetry(nranks=1)
    tel.bus.complete("t", 0, 0, 0.0, 1.0)
    path = str(tmp_path / "t.trace.json")
    write_chrome_trace(path, tel)
    code, text = _cli("validate", path, "--json")
    assert code == 0
    result = json.loads(text)
    assert result["kind"] == "trace"
    assert result["schema_version"] == TRACE_SCHEMA_VERSION


# ---------------------------------------------- resume-boundary takeover


def _torn_then_resumed(tmp_path, torn_line):
    """A run killed mid-write, taken over by an append-mode resumed run."""
    path = str(tmp_path / "resumed.ledger.jsonl")
    led = LedgerWriter(path, run_id="run-a", meta={"app": "unit"})
    led.phase("execute", sim=1.0)
    led.progress(1.0, tasks_done=3)
    led._fh.close()  # simulate the kill: no ledger_close
    with open(path, "a") as fh:
        fh.write(torn_line)  # the record the kill tore (no newline)

    resumed = LedgerWriter(path, run_id="run-b", append=True)
    resumed.resume(point="ckpt-3", predecessor="run-a", checkpoints=3)
    resumed.checkpoint(2.0, events=100, verified=True)
    resumed.progress(2.5, tasks_done=8)
    resumed.close(3.0)
    return path


def test_append_resume_heals_torn_tail(tmp_path):
    path = _torn_then_resumed(
        tmp_path, '{"type": "progress", "run": "run-a", "se')
    records = read_ledger(path)  # torn record skipped, not fatal
    assert [r["type"] for r in records] == [
        "ledger_open", "phase", "progress",           # predecessor
        "resume", "checkpoint", "progress", "ledger_close",  # takeover
    ]
    assert [r["run"] for r in records] == ["run-a"] * 3 + ["run-b"] * 4
    # seq restarts at the resume boundary, monotone on either side.
    assert [r["seq"] for r in records] == [0, 1, 2, 0, 1, 2, 3]


def test_validate_accepts_resume_takeover(tmp_path):
    path = _torn_then_resumed(
        tmp_path, '{"type": "progress", "run": "run-a", "se')
    records = read_ledger(path)
    assert validate_ledger(records) == []


def test_append_resume_replays_to_resumed_state(tmp_path):
    path = _torn_then_resumed(
        tmp_path, '{"type": "progress", "run": "run-a", "se')
    snap = replay_path(path)
    assert snap.complete is True
    assert snap.resumed_from == "ckpt-3"
    assert snap.checkpoints == 1
    assert snap.tasks_done == 8


def test_append_resume_terminates_newline_less_torn_tail(tmp_path):
    # The predecessor died mid-write with no trailing newline; the
    # append-mode writer must terminate that line before its own records.
    path = _torn_then_resumed(tmp_path, '{"type": "phase", "ru')
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[3] == '{"type": "phase", "ru'
    assert json.loads(lines[4])["type"] == "resume"


def test_torn_line_followed_by_non_resume_still_raises(tmp_path):
    path = str(tmp_path / "corrupt.ledger.jsonl")
    led = LedgerWriter(path, run_id="run-a")
    led.phase("execute", sim=1.0)
    led._fh.close()
    with open(path, "a") as fh:
        fh.write('{"type": "heartbeat", "run": "run-a", "se\n')
        fh.write(json.dumps({"type": "heartbeat", "run": "run-a",
                             "seq": 9, "events": 5}) + "\n")
    with pytest.raises(LedgerError, match="unparseable mid-file"):
        read_ledger(path)


def test_validate_still_flags_seq_restart_without_resume():
    records = [
        {"type": "ledger_open", "schema": LEDGER_SCHEMA,
         "version": LEDGER_VERSION, "run": "r", "seq": 0},
        {"type": "heartbeat", "run": "r", "seq": 1, "events": 1},
        {"type": "heartbeat", "run": "r", "seq": 0, "events": 2},
    ]
    problems = validate_ledger(records)
    assert any("not monotonically increasing" in p for p in problems)
