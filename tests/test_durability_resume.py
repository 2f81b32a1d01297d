"""Kill-and-resume parity: a resumed run is bit-for-bit an uninterrupted one.

The acceptance criterion of the durability layer, checked for all four
benchmark applications, for chains the one engine wrote and for chains
stored by the deleted sharded engine: crash a checkpointed run
mid-execution, resume it from disk, and the final bench record (stats,
task counts, byte counters, makespan) must equal the uninterrupted
control run exactly -- only host-side fields may differ.
"""

import json
import os

import pytest

from repro.bench.history import measure_cell
from repro.durability import (
    CheckpointError,
    Checkpointer,
    FaultPlan,
    InjectedFault,
    ResumeConfigError,
    ResumeMismatchError,
    chaos,
    load_chain,
    read_checkpoint,
    resume_run,
    run_id_for,
    state_digest,
    write_checkpoint,
)
from repro.durability.chaos import plans_for_phases
from repro.durability.cli import VOLATILE_RECORD_KEYS

#: Small-but-nontrivial cells; ``every`` is sized so each run passes
#: several cadence points (see the chain counts asserted
#: in ``test_crash_resume_parity``).
CELLS = {
    "potrf": ({"nodes": 2, "n": 384, "b": 128, "workers": 2}, 10),
    "fw": ({"nodes": 2, "n": 256, "b": 128, "workers": 2}, 10),
    "bspmm": ({"nodes": 2, "natoms": 10, "target_tile": 24, "workers": 2},
              400),
    "mra": ({"nodes": 2, "nfuncs": 2, "k": 4, "workers": 2}, 50),
}


def _spec(app):
    params, every = CELLS[app]
    return dict(params, app=app, seed=0, engine="seq"), every


def _core(record):
    d = record.as_dict()
    for key in VOLATILE_RECORD_KEYS:
        d.pop(key, None)
    return d


def _crash(spec, every, directory, nth=2, site="checkpoint"):
    plan = FaultPlan(kind="exception", site=site, nth=nth)
    with chaos.inject(plan):
        with pytest.raises(InjectedFault):
            measure_cell(dict(spec, checkpoint_dir=directory,
                              checkpoint_every=every))


#: Which engine stored the crashed chain.  ``"sharded"`` relabels the
#: one engine's chain the way the deleted sharded engine stored its runs
#: (run id and manifest spec say ``"engine": "sharded"``); such a chain
#: resumes on the one engine by replaying the cell from the start.
ENGINES = ("seq", "sharded")


def _as_stored_by(engine, spec, directory):
    """The id under which ``engine`` stored the crashed run of ``spec``."""
    run_id = run_id_for(spec)
    if engine == "seq":
        return run_id
    old_spec = dict(spec, engine=engine)
    old_id = run_id_for(old_spec)
    os.rename(os.path.join(directory, run_id),
              os.path.join(directory, old_id))
    manifest = os.path.join(directory, old_id, "run.json")
    with open(manifest) as fh:
        stored = json.load(fh)
    stored.update(run=old_id, spec=old_spec)
    with open(manifest, "w") as fh:
        json.dump(stored, fh)
    return old_id


def _assert_replayed_from_start(result, capsys):
    """A sharded-engine chain attests another engine's internal state, so
    nothing is re-verified, and a one-line note says so."""
    assert result.verified == 0
    note = capsys.readouterr().err.splitlines()
    assert len(note) == 1 and "'sharded'" in note[0]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("app", sorted(CELLS))
def test_crash_resume_parity(tmp_path, capsys, app, engine):
    spec, every = _spec(app)
    control = _core(measure_cell(dict(spec)))
    _crash(spec, every, str(tmp_path))
    # the crash left a usable chain behind
    chain = load_chain(str(tmp_path), run_id_for(spec))
    assert chain.checkpoints, "crash before the first checkpoint"
    run_id = _as_stored_by(engine, spec, str(tmp_path))
    capsys.readouterr()
    result = resume_run(str(tmp_path), run_id)
    if engine == "seq":
        # the replay re-attests every stored checkpoint on its way
        assert result.verified == len(chain.checkpoints)
    else:
        _assert_replayed_from_start(result, capsys)
    assert result.written >= 1  # the run continued past the chain
    assert not result.problems
    assert _core(result.record) == control


@pytest.mark.parametrize("phase", ["build", "fence", "execute", "drain"])
def test_kill_at_every_phase_then_resume(tmp_path, phase):
    """The resilience sweep: no life-cycle point is unrecoverable."""
    spec, every = _spec("mra")
    control = _core(measure_cell(dict(spec)))
    plan = next(p for p in plans_for_phases() if p.phase == phase)
    with chaos.inject(plan):
        with pytest.raises(InjectedFault):
            measure_cell(dict(spec, checkpoint_dir=str(tmp_path),
                              checkpoint_every=every))
    result = resume_run(str(tmp_path), run_id_for(spec))
    assert _core(result.record) == control
    # a crash during build resumes from the manifest alone
    if phase == "build":
        assert result.resume_point.endswith("/start")


def test_resume_of_completed_run_is_idempotent(tmp_path):
    spec, every = _spec("potrf")
    control = _core(measure_cell(dict(spec, checkpoint_dir=str(tmp_path),
                                      checkpoint_every=every)))
    stored = len(load_chain(str(tmp_path), run_id_for(spec)).checkpoints)
    # every stored checkpoint re-attested, nothing new written -- and a
    # second resume finds the same chain untouched
    for _ in range(2):
        result = resume_run(str(tmp_path), run_id_for(spec))
        assert result.verified == stored
        assert result.written == 0
        assert _core(result.record) == control


def test_resume_rejects_mismatched_config(tmp_path):
    spec, every = _spec("fw")
    _crash(spec, every, str(tmp_path))
    wrong = dict(spec, n=512)
    with pytest.raises(ResumeConfigError, match="'n'"):
        resume_run(str(tmp_path), run_id_for(spec), spec=wrong)
    # the matching spec is accepted
    result = resume_run(str(tmp_path), run_id_for(spec), spec=dict(spec))
    assert result.verified >= 1


def test_resume_unknown_run_fails_loudly(tmp_path):
    with pytest.raises(CheckpointError, match="no durable run"):
        resume_run(str(tmp_path), "ghost-seed0-seq")


def test_resume_detects_tampered_state(tmp_path):
    """A stored checkpoint whose state was (validly re-signed but)
    altered must fail attestation during the replay, not silently
    produce a different run."""
    spec, every = _spec("mra")
    _crash(spec, every, str(tmp_path))
    run_id = run_id_for(spec)
    chain = load_chain(str(tmp_path), run_id)
    last = chain.checkpoints[-1]
    ckpt = read_checkpoint(last.path)
    ckpt.state["stats"]["tasks_executed"] = 10**9  # plausible forgery
    ckpt.state_digest = state_digest(ckpt.state)
    write_checkpoint(last.path, ckpt)
    with pytest.raises(ResumeMismatchError, match="diverged"):
        resume_run(str(tmp_path), run_id)


def test_resume_skips_torn_tail_and_reports_it(tmp_path):
    spec, every = _spec("mra")
    _crash(spec, every, str(tmp_path), nth=3)
    run_id = run_id_for(spec)
    chain = load_chain(str(tmp_path), run_id)
    assert len(chain.checkpoints) >= 2
    with open(chain.checkpoints[-1].path, "r+b") as fh:
        fh.truncate(23)  # torn at the crash
    control = _core(measure_cell(dict(spec)))
    result = resume_run(str(tmp_path), run_id)
    assert result.problems  # the torn file is reported...
    assert _core(result.record) == control  # ...and parity still holds


def test_bench_resume_prints_the_checkpoints_the_replay_verified(
        tmp_path, capsys):
    from repro.bench.__main__ import main as bench_main

    spec, every = _spec("mra")
    _crash(spec, every, str(tmp_path), nth=3)
    run_id = run_id_for(spec)
    stored = len(load_chain(str(tmp_path), run_id).checkpoints)
    assert stored >= 2
    capsys.readouterr()
    assert bench_main(["--checkpoint-dir", str(tmp_path),
                       "--resume", run_id]) == 0
    out = capsys.readouterr().out
    assert f": verified {stored} stored checkpoint(s), wrote " in out


def test_ledger_records_resume_point(tmp_path):
    from repro.telemetry.ledger import read_ledger, replay

    spec, every = _spec("mra")
    _crash(spec, every, str(tmp_path / "ckpt"))
    run_id = run_id_for(spec)
    result = resume_run(str(tmp_path / "ckpt"), run_id,
                        ledger_dir=str(tmp_path / "ledger"))
    ledgers = list((tmp_path / "ledger").glob("*.jsonl"))
    assert len(ledgers) == 1
    snap = replay(read_ledger(str(ledgers[0])))
    assert snap.resumed_from == result.resume_point
    assert snap.checkpoints >= 1
    assert snap.complete and snap.phase == "drain"


def test_checkpointing_disabled_by_default():
    """Zero-overhead path: no hook, no cadence, no directory touched."""
    from repro.runtime import ParsecBackend
    from repro.sim.cluster import Cluster, HAWK

    backend = ParsecBackend(Cluster(HAWK.with_workers(1), 1))
    assert backend.checkpointer is None
    assert backend.engine.on_checkpoint is None
    assert backend.engine.checkpoint_every == 0


def test_checkpointer_detach_restores_engine(tmp_path):
    from repro.runtime import ParsecBackend
    from repro.sim.cluster import Cluster, HAWK

    backend = ParsecBackend(Cluster(HAWK.with_workers(1), 1))
    ck = Checkpointer(str(tmp_path), "r-seed0-seq", spec={"app": "r"},
                      every=16)
    backend.attach_checkpointer(ck)
    assert backend.engine.on_checkpoint is not None
    assert backend.engine.checkpoint_every == 16
    backend.close_checkpointer()
    assert backend.checkpointer is None
    assert backend.engine.on_checkpoint is None
    assert backend.engine.checkpoint_every == 0
