"""What a resume does with artefacts older than this version.

Two on-disk leftovers of the deleted multiprocess engine can still turn
up in a checkpoint directory: a run manifest whose spec names
``"engine": "mp"``, and format-v2 heap blobs whose RMA section carries the
``"stride"`` key that engine's workers used.  The first must fail with a
message, never a traceback; the second must restore as if the key were
not there.  A third leftover is older than the owner-rank passthrough:
heap blobs whose delivery records carry no owner rank -- the delivery
asks the keymap again.  The ``parity`` gate CI runs on top of a resume is
pinned here too.
"""

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
from repro.runtime.registry import RuntimeRegistry

STALE_SPEC = {"app": "fw", "seed": 0, "engine": "mp", "nodes": 2, "n": 256,
              "b": 128, "workers": 2}


def test_resume_run_rejects_removed_engine_kind(tmp_path):
    run_id = run_id_for(STALE_SPEC)
    write_run_manifest(str(tmp_path), run_id, STALE_SPEC, 10)
    with pytest.raises(ResumeConfigError) as exc:
        resume_run(str(tmp_path), run_id)
    message = str(exc.value)
    assert "'mp'" in message
    assert "seq, sharded" in message
    assert "re-run the cell on 'sharded'" in message


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


def test_durability_cli_engine_flag_has_choices(capsys):
    from repro.durability.cli import main as durability_main

    with pytest.raises(SystemExit) as exc:
        durability_main(["run", "--dir", "unused", "--engine", "mp"])
    assert exc.value.code == 2
    assert "invalid choice: 'mp'" in capsys.readouterr().err


def test_parity_cli_accepts_a_physical_restore(tmp_path, capsys):
    """The CI kill-and-resume gate: a resume that restored heap bytes
    (and so re-verified nothing by replay) still used the chain."""
    from repro.durability.cli import main as durability_main

    code = durability_main([
        "parity", "--app", "fw", "--engine", "sharded", "--dir",
        str(tmp_path), "--param", "nodes=2", "--param", "n=256", "--param",
        "b=128", "--param", "workers=2", "--every", "10", "--nth", "2",
        "--kill-mode", "exception"])
    assert code == 0
    assert "restored physically" in capsys.readouterr().out


def _core(record):
    d = record.as_dict()
    for key in VOLATILE_RECORD_KEYS:
        d.pop(key, None)
    return d


def _potrf_spec(engine):
    return {"app": "potrf", "seed": 0, "engine": engine, "nodes": 4,
            "n": 512, "b": 128, "workers": 2}


def _kill_at_third_checkpoint(spec, tmp_path, every):
    with chaos.inject(FaultPlan(kind="exception", site="checkpoint", nth=3)):
        with pytest.raises(InjectedFault):
            measure_cell(dict(spec, checkpoint_dir=str(tmp_path),
                              checkpoint_every=every))


def _assert_physical_resume_matches(control, spec, tmp_path):
    result = resume_run(str(tmp_path), run_id_for(spec))
    assert result.restored and result.restored_events >= 1
    assert result.verified == 0 and result.written >= 1
    assert not result.problems
    assert _core(result.record) == control


@pytest.mark.parametrize("old_stride_key", [False, True])
def test_physical_restore_of_four_rank_potrf(tmp_path, monkeypatch,
                                             old_stride_key):
    """A v2 heap-byte restore resumes bit-for-bit, with or without the
    ``"stride": 1`` key that blobs written before this version carry."""
    spec = _potrf_spec("sharded")
    control = _core(measure_cell(dict(spec)))
    with monkeypatch.context() as patched:
        if old_stride_key:
            dumps = RuntimeRegistry.dumps

            def dumps_old_shape(self, blob):
                blob["rma"]["stride"] = 1
                return dumps(self, blob)

            patched.setattr(RuntimeRegistry, "dumps", dumps_old_shape)
        _kill_at_third_checkpoint(spec, tmp_path, every=10)
    _assert_physical_resume_matches(control, spec, tmp_path)


def _strip_owner_rank(record):
    """Give one heap record the shape it had before the owner rank
    travelled with the message; returns how many ranks were removed."""
    from repro.core.graph import Executable, _Routed
    from repro.runtime.base import _LocalRun

    while record is not None:
        if isinstance(record, _Routed):
            del record.rank  # an unset slot is not pickled
            return 1
        if isinstance(record, _LocalRun):
            if getattr(record.fn, "__func__", None) is Executable._deliver:
                assert len(record.args) == 5
                record.args = record.args[:4]
                return 1
            return 0
        # transport records wrap the delivery they end in
        record = getattr(record, "on_deliver",
                         getattr(record, "on_complete", None))
    return 0


@pytest.mark.parametrize("engine", ["seq", "sharded"])
def test_physical_restore_of_blob_without_owner_ranks(tmp_path, monkeypatch,
                                                      engine):
    """A v2 heap-byte blob whose ``_Deliver*``/``_LocalRun`` records were
    written before the owner rank travelled with the message resumes
    bit-for-bit: the restored deliveries recompute the rank."""
    spec = _potrf_spec(engine)
    control = _core(measure_cell(dict(spec)))
    stripped = []
    dumps = RuntimeRegistry.dumps

    def dumps_old_shape(self, blob):
        # Work on a by-value copy (runtime objects resolve to themselves),
        # so the run that is about to be killed is not disturbed.
        old = self.loads(dumps(self, blob))
        state = old["engine"]
        heaps = state["shards"] + [state["incoming"]] \
            if state["kind"] == "sharded" else [state["heap"]]
        n = 0
        for heap in heaps:
            for _, _, payload in heap:
                for ev in payload if type(payload) is list else [payload]:
                    n += _strip_owner_rank(ev.fn)
        stripped.append(n)
        return dumps(self, old)

    with monkeypatch.context() as patched:
        patched.setattr(RuntimeRegistry, "dumps", dumps_old_shape)
        _kill_at_third_checkpoint(spec, tmp_path, every=15)
    # two blobs written, and the one resumed from held such records
    assert len(stripped) == 2 and stripped[-1] > 0
    _assert_physical_resume_matches(control, spec, tmp_path)
