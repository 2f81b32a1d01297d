"""What a resume does with run manifests older than this version.

A run manifest whose spec names an engine kind that no longer exists can
still turn up in a checkpoint directory: ``"mp"`` must fail with a
message and never a traceback; ``"sharded"`` replayed the one loop's
exact event order and so resumes on the one engine with a note.  (Older
checkpoint *files* are refused by the reader; see
``test_durability_checkpoint``.)  The ``parity`` gate CI runs on top of a
resume is pinned here too.
"""

import re

import pytest

from repro.bench.history import measure_cell
from repro.durability import (
    FaultPlan,
    InjectedFault,
    ResumeConfigError,
    chaos,
    resume_run,
    run_id_for,
)
from repro.durability.checkpoint import write_run_manifest
from repro.durability.cli import VOLATILE_RECORD_KEYS

STALE_SPEC = {"app": "fw", "seed": 0, "engine": "mp", "nodes": 2, "n": 256,
              "b": 128, "workers": 2}


def test_resume_run_rejects_removed_engine_kind(tmp_path):
    run_id = run_id_for(STALE_SPEC)
    write_run_manifest(str(tmp_path), run_id, STALE_SPEC, 10)
    with pytest.raises(ResumeConfigError) as exc:
        resume_run(str(tmp_path), run_id)
    message = str(exc.value)
    assert "'mp'" in message
    assert "known: seq)" in message
    assert "re-run the cell instead" in message


def test_bench_resume_of_removed_engine_kind_exits_one(tmp_path, capsys):
    from repro.bench.__main__ import main as bench_main

    run_id = run_id_for(STALE_SPEC)
    write_run_manifest(str(tmp_path), run_id, STALE_SPEC, 10)
    code = bench_main(["--checkpoint-dir", str(tmp_path), "--resume", run_id])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("resume failed: ") and "'mp'" in lines[0]
    assert "Traceback" not in captured.err


def test_durability_cli_has_no_engine_flag(capsys):
    from repro.durability.cli import main as durability_main

    with pytest.raises(SystemExit) as exc:
        durability_main(["run", "--dir", "unused", "--engine", "seq"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --engine seq" in capsys.readouterr().err


def test_parity_cli_reports_the_verified_checkpoints(tmp_path, capsys):
    """The CI kill-and-resume gate: the resume re-verified the stored
    chain by replay and says how much of it."""
    from repro.durability.cli import main as durability_main

    code = durability_main([
        "parity", "--app", "fw", "--dir", str(tmp_path), "--param",
        "nodes=2", "--param", "n=256", "--param", "b=128", "--param",
        "workers=2", "--every", "10", "--nth", "2", "--kill-mode",
        "exception"])
    assert code == 0
    out = capsys.readouterr().out
    assert re.search(r"OK -- .*\(([1-9]\d*) checkpoint\(s\) verified", out)


def _core(record):
    d = record.as_dict()
    for key in VOLATILE_RECORD_KEYS:
        d.pop(key, None)
    return d


POTRF_SPEC = {"app": "potrf", "seed": 0, "engine": "seq", "nodes": 4,
              "n": 512, "b": 128, "workers": 2}


def _kill_at_third_checkpoint(spec, tmp_path, every):
    with chaos.inject(FaultPlan(kind="exception", site="checkpoint", nth=3)):
        with pytest.raises(InjectedFault):
            measure_cell(dict(spec, checkpoint_dir=str(tmp_path),
                              checkpoint_every=every))


def test_resume_of_sharded_spec_runs_on_the_one_engine(tmp_path, capsys):
    """A run recorded on the deleted sharded engine -- its manifest and
    checkpoints name ``"engine": "sharded"`` -- resumes on the one engine
    with a one-line note, to the bits of an uninterrupted run."""
    import json

    spec = dict(POTRF_SPEC, engine="sharded")
    run_id = run_id_for(spec)
    assert run_id == "potrf-seed0-sharded"
    _kill_at_third_checkpoint(POTRF_SPEC, tmp_path, every=10)
    # relabel the crashed run as the sharded engine would have stored it
    (tmp_path / run_id_for(POTRF_SPEC)).rename(tmp_path / run_id)
    manifest = tmp_path / run_id / "run.json"
    stored = json.loads(manifest.read_text())
    stored.update(run=run_id, spec=spec)
    manifest.write_text(json.dumps(stored))
    capsys.readouterr()
    result = resume_run(str(tmp_path), run_id)
    note = capsys.readouterr().err.splitlines()
    assert len(note) == 1 and note[0].startswith("note: ")
    assert "'sharded'" in note[0] and "one engine" in note[0]
    assert result.verified == 0 and result.written
    assert _core(result.record) == _core(measure_cell(dict(POTRF_SPEC)))
    # the run directory now holds a one-engine chain: a second resume
    # re-verifies all of it, without a note
    assert json.loads(manifest.read_text())["spec"]["engine"] == "seq"
    again = resume_run(str(tmp_path), run_id)
    assert capsys.readouterr().err == ""
    assert again.verified == result.written and again.written == 0
    assert _core(again.record) == _core(result.record)
