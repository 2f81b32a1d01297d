"""Crash-consistent checkpoints of a run: format, chain, and Checkpointer.

Design -- logical checkpoints
-----------------------------

A simulated run's event heap holds callbacks into shared runtime state
(worker pools, the NIC model, the RMA window), so the heap alone is not a
checkpoint.  What *can* be captured exactly is everything TaskTorrent
showed a task runtime reduces to when task bodies are pure functions of
their inputs: the **spec** (the cell description that constructs the
Backend/Executable), the **cursor** (events processed, virtual clock,
scheduling sequence number), and the serializable **core** -- run-stat
counters, per-graph pending-instance and template-task counts, and a
digest of the telemetry counters.  Because the simulator is
deterministic, that core is a bit-for-bit *attestation* of the run's
trajectory at the cadence point.

The :class:`Checkpointer` only writes.  Nothing reads a checkpoint back
to continue a run: a killed cell is cheaper to rerun than to replay, and
the rerun gives the same bits.  What the trail adds is the attestation --
two runs that wrote equal digests at every cadence point followed the
same trajectory.  Read it from Python with :func:`read_checkpoint` and
:func:`load_chain`.

On-disk format (``repro.durability/checkpoint`` v4)
---------------------------------------------------

One file per cadence point, ``<dir>/<run-id>/ckpt-NNNNNN-EEEEEEEEEEEE.ckpt``
(index and events-processed, zero-padded so lexicographic order is chain
order), written via :class:`repro.serialization.archive.BufferOutputArchive`
frames::

    [0] schema  (str)   "repro.durability/checkpoint"
    [1] version (int)   4
    [2] manifest (str)  canonical JSON: run/index/events/sim/seq/every/
                        spec/state_digest/prev_digest/host
    [3] state   (str)   canonical JSON: the serializable core
    [4] checksum (bytes) sha256 over the exact bytes of all prior frames

Every write is crash-consistent: serialize to ``<file>.tmp``, flush,
``fsync``, ``os.replace`` onto the final name, ``fsync`` the directory.
A truncation at *any* byte offset is detected (frame underflow or
checksum mismatch) and reported with a schema-versioned diagnostic; the
chain loader then falls back to the newest intact checkpoint -- never a
silent partial read.  ``run.json`` (written before the first checkpoint)
records the cell's spec, so even a run killed during build names what to
rerun.

A checkpoint file of any other version is refused with a
:class:`CheckpointError` naming it; the chain loader lists such files as
problems.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.durability import chaos
from repro.serialization.archive import (
    ArchiveError, BufferInputArchive, BufferOutputArchive,
)

CHECKPOINT_SCHEMA = "repro.durability/checkpoint"
CHECKPOINT_VERSION = 4

#: Default cadence (events between checkpoints).
DEFAULT_EVERY = 2048

#: The per-run manifest (the cell spec), written before any checkpoint.
RUN_MANIFEST = "run.json"

_CKPT_RE = re.compile(r"^ckpt-(\d{6})-(\d{12})\.ckpt$")


class CheckpointError(ValueError):
    """A structurally invalid or unreadable checkpoint."""


def run_id_for(spec: Dict[str, Any]) -> str:
    """Canonical durable run id of a bench cell:
    ``<app>-seed<seed>-<engine>``."""
    return (f"{spec.get('app', 'run')}-seed{spec.get('seed', 0)}"
            f"-{spec.get('engine', 'seq')}")


def _canonical(obj: Any) -> str:
    """Canonical JSON: the digest input must be byte-stable."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def state_digest(state: Dict[str, Any]) -> str:
    """sha256 hex digest of the canonical state JSON -- the attestation."""
    return hashlib.sha256(_canonical(state).encode()).hexdigest()


# ------------------------------------------------------------------- files


@dataclass
class Checkpoint:
    """One decoded checkpoint file."""

    run_id: str
    index: int
    events: int
    sim: float
    seq: int
    every: int
    spec: Dict[str, Any] = field(default_factory=dict)
    state: Dict[str, Any] = field(default_factory=dict)
    state_digest: str = ""
    prev_digest: str = ""
    version: int = CHECKPOINT_VERSION
    path: Optional[str] = None

    def manifest(self, host: float = 0.0) -> Dict[str, Any]:
        # ``host`` (wall-clock write time) is carried for inspection but
        # excluded from every digest: two identical runs at different
        # times must produce identical attestations.
        return {
            "run": self.run_id, "index": self.index, "events": self.events,
            "sim": self.sim, "seq": self.seq, "every": self.every,
            "spec": dict(self.spec), "state_digest": self.state_digest,
            "prev_digest": self.prev_digest, "host": host,
        }


def checkpoint_path(directory: str, run_id: str, index: int,
                    events: int) -> str:
    return os.path.join(directory, run_id, f"ckpt-{index:06d}-{events:012d}.ckpt")


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def _atomic_write(path: str, data: bytes) -> None:
    """write-temp + flush + fsync + rename: all-or-nothing on disk."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")


def encode_checkpoint(ckpt: Checkpoint, host: float = 0.0) -> bytes:
    """The framed, checksummed byte image of one checkpoint."""
    arch = BufferOutputArchive()
    arch.store(CHECKPOINT_SCHEMA)
    arch.store(int(ckpt.version))
    arch.store(_canonical(ckpt.manifest(host)))
    arch.store(_canonical(ckpt.state))
    body = arch.bytes()
    arch.store(hashlib.sha256(body).digest())
    return arch.bytes()


def write_checkpoint(path: str, ckpt: Checkpoint, host: float = 0.0) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    _atomic_write(path, encode_checkpoint(ckpt, host))
    ckpt.path = path
    return path


def read_checkpoint(path: str) -> Checkpoint:
    """Decode + fully validate one checkpoint file.

    Any truncation, corruption or other version raises
    :class:`CheckpointError` with a diagnostic naming the schema version
    involved -- a damaged file is never partially read.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    arch = BufferInputArchive(data)
    try:
        schema = arch.load()
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{path}: schema {schema!r}, expected {CHECKPOINT_SCHEMA!r} "
                f"v{CHECKPOINT_VERSION}"
            )
        version = arch.load()
        if not isinstance(version, int):
            raise CheckpointError(
                f"{path}: bad checkpoint version {version!r} "
                f"(reader supports v{CHECKPOINT_VERSION})"
            )
        if version != CHECKPOINT_VERSION:
            age = "newer" if version > CHECKPOINT_VERSION else "older"
            raise CheckpointError(
                f"{path}: schema {CHECKPOINT_SCHEMA} v{version} is {age} "
                f"than this code's v{CHECKPOINT_VERSION}"
            )
        manifest = json.loads(arch.load())
        state = json.loads(arch.load())
        body_end = arch.tell
        checksum = arch.load()
    except ArchiveError as e:
        raise CheckpointError(
            f"{path}: truncated or corrupt checkpoint "
            f"(schema {CHECKPOINT_SCHEMA} v{CHECKPOINT_VERSION}): {e}"
        ) from e
    except (ValueError, TypeError, KeyError) as e:
        raise CheckpointError(
            f"{path}: undecodable checkpoint frame "
            f"(schema {CHECKPOINT_SCHEMA} v{CHECKPOINT_VERSION}): {e}"
        ) from e
    if checksum != hashlib.sha256(data[:body_end]).digest():
        raise CheckpointError(
            f"{path}: checksum mismatch -- file corrupted or torn "
            f"(schema {CHECKPOINT_SCHEMA} v{version})"
        )
    if not arch.at_end():
        raise CheckpointError(
            f"{path}: {len(data) - arch.tell} trailing byte(s) after the "
            f"checksum frame (schema {CHECKPOINT_SCHEMA} v{version})"
        )
    digest = manifest.get("state_digest", "")
    if state_digest(state) != digest:
        raise CheckpointError(
            f"{path}: state does not match its recorded digest "
            f"(schema {CHECKPOINT_SCHEMA} v{version})"
        )
    return Checkpoint(
        run_id=manifest.get("run", ""), index=int(manifest.get("index", 0)),
        events=int(manifest.get("events", 0)),
        sim=float(manifest.get("sim", 0.0)), seq=int(manifest.get("seq", 0)),
        every=int(manifest.get("every", 0)),
        spec=dict(manifest.get("spec", {})), state=state,
        state_digest=digest, prev_digest=manifest.get("prev_digest", ""),
        version=version, path=path,
    )


# ------------------------------------------------------------ run manifest


def write_run_manifest(directory: str, run_id: str, spec: Dict[str, Any],
                       every: int) -> str:
    run_dir = os.path.join(directory, run_id)
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, RUN_MANIFEST)
    payload = {"schema": CHECKPOINT_SCHEMA, "version": CHECKPOINT_VERSION,
               "run": run_id, "spec": dict(spec), "every": int(every)}
    _atomic_write(path, (_canonical(payload) + "\n").encode())
    return path


def read_run_manifest(directory: str, run_id: str) -> Dict[str, Any]:
    path = os.path.join(directory, run_id, RUN_MANIFEST)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(
            f"no durable run {run_id!r} under {directory} "
            f"(missing {path})"
        ) from None
    except ValueError as e:
        raise CheckpointError(f"{path}: unreadable run manifest: {e}") from e
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: schema {payload.get('schema')!r}, expected "
            f"{CHECKPOINT_SCHEMA!r} v{CHECKPOINT_VERSION}"
        )
    version = payload.get("version")
    if not isinstance(version, int) or version > CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: run manifest version {version!r} is newer than this "
            f"code's v{CHECKPOINT_VERSION}"
        )
    return payload


def list_runs(directory: str) -> List[str]:
    """Run ids that have a manifest or at least one checkpoint file."""
    out = []
    try:
        entries = sorted(os.listdir(directory))
    except OSError:
        return []
    for name in entries:
        run_dir = os.path.join(directory, name)
        if not os.path.isdir(run_dir):
            continue
        try:
            files = os.listdir(run_dir)
        except OSError:
            continue
        if RUN_MANIFEST in files or any(_CKPT_RE.match(f) for f in files):
            out.append(name)
    return out


# ------------------------------------------------------------------- chain


@dataclass
class ChainReport:
    """The intact prefix-consistent chain of one run, plus what was not."""

    run_id: str
    checkpoints: List[Checkpoint] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    files: List[str] = field(default_factory=list)

    @property
    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    @property
    def valid(self) -> bool:
        return not self.problems


def load_chain(directory: str, run_id: str) -> ChainReport:
    """Read every checkpoint of a run, newest-intact fallback included.

    Corrupt / truncated / stale-schema files are reported in
    ``problems`` and skipped; chain-linkage breaks (a checkpoint whose
    ``prev_digest`` does not match the previous intact one, e.g. because
    the one between them was lost) truncate the chain at the break, so
    ``latest`` is always safe to compare against.
    """
    run_dir = os.path.join(directory, run_id)
    report = ChainReport(run_id)
    try:
        names = sorted(n for n in os.listdir(run_dir) if _CKPT_RE.match(n))
    except OSError as e:
        report.problems.append(f"{run_dir}: unreadable run directory: {e}")
        return report
    report.files = names
    prev_digest = ""
    for name in names:
        path = os.path.join(run_dir, name)
        try:
            ckpt = read_checkpoint(path)
        except CheckpointError as e:
            report.problems.append(str(e))
            continue
        if ckpt.run_id != run_id:
            report.problems.append(
                f"{path}: belongs to run {ckpt.run_id!r}, not {run_id!r}")
            continue
        if ckpt.index != len(report.checkpoints) or \
                ckpt.prev_digest != prev_digest:
            report.problems.append(
                f"{path}: chain break at index {ckpt.index} "
                f"(expected index {len(report.checkpoints)} linking "
                f"digest {prev_digest[:12] or '<start>'!r}); later "
                f"checkpoints ignored")
            break
        # Equal events are legal: consecutive drain checkpoints of an
        # already-drained fence attest the same cursor (distinct digests
        # chain them); only a *decrease* is corruption.
        if report.checkpoints and \
                ckpt.events < report.checkpoints[-1].events:
            report.problems.append(
                f"{path}: events {ckpt.events} earlier than previous "
                f"{report.checkpoints[-1].events}; later checkpoints ignored")
            break
        report.checkpoints.append(ckpt)
        prev_digest = ckpt.state_digest
    return report


# ------------------------------------------------------------ checkpointer


class Checkpointer:
    """Periodic crash-consistent checkpoints of one backend's run.

    Installs the engine's ``on_checkpoint`` hook at construction-time
    cadence and writes one atomic checkpoint file per cadence point (plus
    one at every completed drain, so finished runs carry a terminal
    attestation).  Write-only: nothing reads the files back to continue
    a run.

    Attach via :meth:`repro.runtime.base.Backend.attach_checkpointer`.
    """

    def __init__(
        self,
        directory: str,
        run_id: str,
        *,
        spec: Optional[Dict[str, Any]] = None,
        every: int = DEFAULT_EVERY,
    ) -> None:
        if every < 1:
            raise CheckpointError(f"checkpoint_every must be >= 1, got {every}")
        self.directory = directory
        self.run_id = run_id
        self.every = int(every)
        self.spec: Dict[str, Any] = dict(spec or {})
        self.backend: Any = None
        self.executables: List[Any] = []
        self._index = 0          # ordinal of the next cadence point
        self._last_digest = ""
        run_dir = os.path.join(directory, run_id)
        os.makedirs(run_dir, exist_ok=True)
        for name in os.listdir(run_dir):
            if _CKPT_RE.match(name):  # stale files of a previous run
                os.unlink(os.path.join(run_dir, name))
        write_run_manifest(directory, run_id, self.spec, self.every)

    # ------------------------------------------------------------- binding

    def bind(self, backend: Any) -> None:
        """Install the engine hook; called by ``attach_checkpointer``."""
        self.backend = backend
        engine = backend.engine
        engine.on_checkpoint = self._hook
        engine.checkpoint_every = self.every
        chaos.poke("phase", phase="build")

    def bind_executable(self, ex: Any) -> None:
        """Track one Executable's bookkeeping in the snapshot (called by
        :class:`repro.core.graph.Executable` at construction)."""
        self.executables.append(ex)

    def phase(self, name: str) -> None:
        """Life-cycle transition: a fault-injection site."""
        chaos.poke("phase", phase=name)

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> Dict[str, Any]:
        """The serializable core -- everything virtual, nothing host."""
        backend = self.backend
        engine = backend.engine
        eng: Dict[str, Any] = {
            "kind": type(engine).__name__,
            "now": engine.now,
            "events": engine.events_processed,
            "seq": engine._seq,
            "pending": engine.pending,
        }
        state: Dict[str, Any] = {
            "engine": eng,
            "stats": backend.stats.as_dict(),
            "executables": [
                {"graph": ex.graph.name, "pending": ex.pending_instances,
                 "task_counts": dict(ex.task_counts)}
                for ex in self.executables
            ],
        }
        if backend.telemetry is not None:
            # The full counter registry is large; its digest is exactly as
            # strong an attestation and keeps checkpoints small.
            state["telemetry_digest"] = hashlib.sha256(
                _canonical(backend.telemetry.metrics.as_dict()).encode()
            ).hexdigest()
        return state

    # ---------------------------------------------------------------- hook

    def _hook(self, now: float, events: int) -> None:
        """One cadence point: write its checkpoint."""
        chaos.poke("checkpoint", index=self._index, events=events)
        index = self._index
        self._index = index + 1
        state = self.snapshot()
        digest = state_digest(state)
        backend = self.backend
        tel = backend.telemetry
        if tel is not None and tel.bus.recording:
            tel.bus.instant("checkpoint", 0, 905, cat="ckpt",
                            index=index, events=events, digest=digest[:12])
        import time as _time

        ckpt = Checkpoint(
            run_id=self.run_id, index=index, events=events, sim=now,
            seq=backend.engine._seq, every=self.every, spec=self.spec,
            state=state, state_digest=digest, prev_digest=self._last_digest,
        )
        write_checkpoint(
            checkpoint_path(self.directory, self.run_id, index, events),
            ckpt, host=_time.time(),
        )
        self._last_digest = digest

    def on_drain(self, now: float, events: int) -> None:
        """Terminal cadence point at a completed drain (Backend.run)."""
        self.phase("drain")
        self._hook(now, events)

    def detach(self) -> None:
        """Disarm the engine hook (idempotent)."""
        if self.backend is None:
            return
        engine = self.backend.engine
        if engine.on_checkpoint == self._hook:
            engine.on_checkpoint = None
            engine.checkpoint_every = 0
