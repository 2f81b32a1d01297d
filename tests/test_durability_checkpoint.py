"""Checkpoint format: framing, atomicity, corruption rejection, chains."""

import json
import os

import pytest

from repro.durability import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    Checkpointer,
    checkpoint_path,
    list_runs,
    load_chain,
    read_checkpoint,
    read_run_manifest,
    run_id_for,
    state_digest,
    write_checkpoint,
)
from repro.durability.checkpoint import encode_checkpoint, write_run_manifest
from repro.serialization.archive import BufferOutputArchive


def _mk(index=0, events=10, prev="", run="app-seed0-seq", **state):
    state = dict({"engine": {"events": events}, "stats": {"tasks": index + 1}},
                 **state)
    return Checkpoint(
        run_id=run, index=index, events=events, sim=float(events) * 0.5,
        seq=events + 1, every=10, spec={"app": "app", "seed": 0},
        state=state, state_digest=state_digest(state), prev_digest=prev,
    )


def _write_chain(directory, run="app-seed0-seq", events=(10, 20, 30)):
    prev = ""
    write_run_manifest(directory, run, {"app": "app", "seed": 0}, 10)
    paths = []
    for i, ev in enumerate(events):
        c = _mk(index=i, events=ev, prev=prev, run=run)
        paths.append(write_checkpoint(
            checkpoint_path(directory, run, i, ev), c))
        prev = c.state_digest
    return paths


# ----------------------------------------------------------------- format


def test_roundtrip_checkpoint_file(tmp_path):
    c = _mk()
    path = write_checkpoint(checkpoint_path(str(tmp_path), c.run_id, 0, 10), c)
    out = read_checkpoint(path)
    assert out.run_id == c.run_id
    assert out.index == 0 and out.events == 10
    assert out.sim == c.sim and out.seq == c.seq and out.every == 10
    assert out.spec == c.spec and out.state == c.state
    assert out.state_digest == c.state_digest
    assert out.version == CHECKPOINT_VERSION
    assert out.path == path


def test_host_time_excluded_from_digest(tmp_path):
    c = _mk()
    a = encode_checkpoint(c, host=1.0)
    b = encode_checkpoint(c, host=2.0)
    assert a != b  # the bytes differ (host is carried)...
    pa = str(tmp_path / "a.ckpt")
    pb = str(tmp_path / "b.ckpt")
    write_checkpoint(pa, c, host=1.0)
    write_checkpoint(pb, c, host=2.0)
    # ...but the attestation does not.
    assert read_checkpoint(pa).state_digest == read_checkpoint(pb).state_digest


def test_truncation_at_every_byte_rejected(tmp_path):
    """The acceptance criterion: no prefix of a checkpoint is restorable."""
    data = encode_checkpoint(_mk())
    path = str(tmp_path / "t.ckpt")
    for cut in range(len(data)):
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        with pytest.raises(CheckpointError) as exc:
            read_checkpoint(path)
        # every diagnostic names the schema version it validated against
        assert CHECKPOINT_SCHEMA in str(exc.value), cut


def test_single_byte_corruption_rejected(tmp_path):
    data = bytearray(encode_checkpoint(_mk()))
    path = str(tmp_path / "c.ckpt")
    for pos in range(len(data)):
        data[pos] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(CheckpointError):
            read_checkpoint(path)
        data[pos] ^= 0xFF


def test_trailing_garbage_rejected(tmp_path):
    path = str(tmp_path / "g.ckpt")
    with open(path, "wb") as fh:
        fh.write(encode_checkpoint(_mk()) + b"junk")
    with pytest.raises(CheckpointError, match="trailing"):
        read_checkpoint(path)


def test_wrong_schema_rejected(tmp_path):
    arch = BufferOutputArchive()
    arch.store("some.other/schema")
    path = str(tmp_path / "s.ckpt")
    with open(path, "wb") as fh:
        fh.write(arch.bytes())
    with pytest.raises(CheckpointError, match="schema"):
        read_checkpoint(path)


def test_newer_version_rejected(tmp_path):
    c = _mk()
    c.version = CHECKPOINT_VERSION + 1
    path = str(tmp_path / "v.ckpt")
    with open(path, "wb") as fh:
        fh.write(encode_checkpoint(c))
    with pytest.raises(CheckpointError, match="newer"):
        read_checkpoint(path)


def test_checkpoint_size_is_independent_of_run_length(tmp_path):
    """A checkpoint holds a cursor and an attested core, never the heap
    or the telemetry rings, so its size does not grow with the run."""
    from repro.apps.bspmm import bspmm_ttg
    from repro.linalg import yukawa_blocksparse
    from repro.runtime import ParsecBackend
    from repro.sim.cluster import Cluster, HAWK
    from repro.telemetry import Telemetry

    backend = ParsecBackend(Cluster(HAWK.with_workers(2), 2),
                            telemetry=Telemetry(nranks=2, capacity=None))
    backend.attach_checkpointer(
        Checkpointer(str(tmp_path), "bspmm-seed0-seq", every=400))
    a = yukawa_blocksparse(10, target_tile=24, seed=0)
    bspmm_ttg(a, a, backend)
    backend.close_checkpointer()
    run_dir = tmp_path / "bspmm-seed0-seq"
    sizes = [p.stat().st_size for p in run_dir.glob("*.ckpt")]
    assert len(sizes) >= 10
    assert max(sizes) < 16 * 1024


def test_atomic_write_leaves_no_tmp(tmp_path):
    c = _mk()
    path = write_checkpoint(checkpoint_path(str(tmp_path), c.run_id, 0, 10), c)
    run_dir = os.path.dirname(path)
    assert not [n for n in os.listdir(run_dir) if n.endswith(".tmp")]
    # overwriting re-runs the same protocol
    write_checkpoint(path, c)
    assert not [n for n in os.listdir(run_dir) if n.endswith(".tmp")]


# ------------------------------------------------------------------ chains


def test_load_chain_intact(tmp_path):
    _write_chain(str(tmp_path))
    report = load_chain(str(tmp_path), "app-seed0-seq")
    assert report.valid
    assert [c.index for c in report.checkpoints] == [0, 1, 2]
    assert report.latest.events == 30
    assert len(report.files) == 3


def test_load_chain_falls_back_past_torn_latest(tmp_path):
    paths = _write_chain(str(tmp_path))
    with open(paths[-1], "r+b") as fh:
        fh.truncate(17)  # torn write of the newest checkpoint
    report = load_chain(str(tmp_path), "app-seed0-seq")
    assert len(report.checkpoints) == 2
    assert report.latest.index == 1
    assert len(report.problems) == 1 and not report.valid


def test_load_chain_breaks_at_missing_middle(tmp_path):
    paths = _write_chain(str(tmp_path))
    os.unlink(paths[1])
    report = load_chain(str(tmp_path), "app-seed0-seq")
    # index 0 is intact; index 2 cannot link past the hole
    assert [c.index for c in report.checkpoints] == [0]
    assert any("chain break" in p for p in report.problems)


def test_load_chain_equal_events_legal_decrease_not(tmp_path):
    # consecutive drain checkpoints of an already-drained fence attest
    # the same cursor -- that is a legal chain
    _write_chain(str(tmp_path), events=(10, 10))
    report = load_chain(str(tmp_path), "app-seed0-seq")
    assert report.valid and len(report.checkpoints) == 2
    # ...but time running backwards is corruption
    _write_chain(str(tmp_path), run="bad-seed0-seq", events=(10, 5))
    # (filenames sort by index, so the regression is visible to the loader)
    report = load_chain(str(tmp_path), "bad-seed0-seq")
    assert len(report.checkpoints) == 1
    assert any("earlier than previous" in p for p in report.problems)


def test_load_chain_rejects_foreign_run(tmp_path):
    c = _mk(run="other-seed1-seq")
    write_checkpoint(checkpoint_path(str(tmp_path), "app-seed0-seq", 0, 10), c)
    report = load_chain(str(tmp_path), "app-seed0-seq")
    assert not report.checkpoints
    assert any("belongs to run" in p for p in report.problems)


# ------------------------------------------------------------ run manifest


def test_run_manifest_roundtrip_and_listing(tmp_path):
    write_run_manifest(str(tmp_path), "r1", {"app": "mra"}, 64)
    payload = read_run_manifest(str(tmp_path), "r1")
    assert payload["spec"] == {"app": "mra"} and payload["every"] == 64
    assert payload["schema"] == CHECKPOINT_SCHEMA
    assert list_runs(str(tmp_path)) == ["r1"]


def test_run_manifest_missing_and_newer_version(tmp_path):
    with pytest.raises(CheckpointError, match="no durable run"):
        read_run_manifest(str(tmp_path), "ghost")
    run_dir = tmp_path / "r2"
    run_dir.mkdir()
    (run_dir / "run.json").write_text(json.dumps(
        {"schema": CHECKPOINT_SCHEMA, "version": CHECKPOINT_VERSION + 1}))
    with pytest.raises(CheckpointError, match="newer"):
        read_run_manifest(str(tmp_path), "r2")


def test_checkpointer_rejects_bad_cadence(tmp_path):
    with pytest.raises(CheckpointError, match="checkpoint_every"):
        Checkpointer(str(tmp_path), "r", every=0)


def test_checkpointer_write_mode_clears_stale_files(tmp_path):
    _write_chain(str(tmp_path))
    Checkpointer(str(tmp_path), "app-seed0-seq", spec={"app": "app"}, every=10)
    report = load_chain(str(tmp_path), "app-seed0-seq")
    assert not report.files  # stale chain of the previous attempt is gone


def test_run_id_for_shape():
    assert run_id_for({"app": "mra", "seed": 3, "engine": "sharded"}) == \
        "mra-seed3-sharded"
    assert run_id_for({}) == "run-seed0-seq"
