"""Crash-consistent checkpoints of a run: format, chain, and Checkpointer.

Design -- deterministic-replay (logical) checkpoints
----------------------------------------------------

A simulated run's event heap holds callbacks into shared runtime state
(worker pools, the NIC model, termination counters), so the heap alone is
not a checkpoint.  What *can* be captured exactly is everything TaskTorrent
showed a task runtime reduces to when task bodies are pure functions of
their inputs: the rebuild **spec** (the cell description that constructs
the Backend/Executable), the replay **cursor** (events processed, virtual
clock, scheduling sequence number), and the serializable **core** --
run-stat counters, the termination detector's message/task ledger,
per-graph pending-instance and template-task counts, and a digest of the
telemetry counters.  Because the simulator is deterministic, that core is a
bit-for-bit *attestation* of the run's trajectory at the cadence point.

Resume rebuilds the Backend/Executable from the stored spec and replays
forward with the :class:`Checkpointer` in **verify mode**: at every
cadence point covered by a stored checkpoint, the recomputed state digest
must equal the stored one (a mismatch -- changed code, changed config,
nondeterminism -- raises :class:`ResumeMismatchError` instead of silently
producing a different run).  Past the last stored checkpoint the
checkpointer switches back to write mode and the run continues to
completion, producing final stats, traces and bench records bit-for-bit
identical to an uninterrupted run (asserted by the engine-parity suite).

Physical (heap-byte) checkpoints -- format v2
---------------------------------------------

Now that every heap entry is a picklable record resolving runtime objects
through :class:`repro.runtime.registry.RuntimeRegistry` (no captured
closures anywhere on a scheduling path), a checkpoint *additionally*
carries the serialized physical state: the event heap itself plus
every piece of mutable runtime state an event can observe (ready queues,
worker/GPU idle lists, comm/NIC occupancy, RMA regions, termination
ledger, stats, telemetry rings and counters, per-graph pending
instances).  On resume the prefix replay is **skipped**: the
backend is rebuilt from the spec (build phase only), the heap bytes are
deserialized against the fresh runtime objects at the stored execute
phase, and the run continues from the exact cadence point.  A blob whose
engine state this version cannot load -- written before the heap entry
became the ``(time, seq, fn, args)`` event, or by the deleted sharded
engine -- is refused with :class:`ResumeMismatchError`, never partially
loaded.  The logical core is still recomputed from the restored state and
must hash to the stored attestation digest -- a physical restore is
always self-verifying.
``verify=True`` (CLI ``--verify``) forces the old full-replay path, which
remains the strongest end-to-end check.

Physical capture degrades gracefully to the v1 logical core (an empty
heap frame) when the run is not capturable: an armed sanitizer (its
id-keyed tracking tables do not survive a process boundary), a non-empty
GPU residency cache (same reason), or any unpicklable payload.

On-disk format (``repro.durability/checkpoint`` v2)
---------------------------------------------------

One file per cadence point, ``<dir>/<run-id>/ckpt-NNNNNN-EEEEEEEEEEEE.ckpt``
(index and events-processed, zero-padded so lexicographic order is chain
order), written via :class:`repro.serialization.archive.BufferOutputArchive`
frames::

    [0] schema  (str)   "repro.durability/checkpoint"
    [1] version (int)   2
    [2] manifest (str)  canonical JSON: run/index/events/sim/seq/every/
                        spec/state_digest/prev_digest/phase_idx/
                        heap_bytes/host
    [3] state   (str)   canonical JSON: the serializable core
    [4] heap    (bytes) registry-pickled physical state (b"" = logical
                        checkpoint; v2 only -- v1 files have no frame [4])
    [5] checksum (bytes) sha256 over the exact bytes of all prior frames

The state digest (and therefore the chain linkage) covers the logical
core only, exactly as in v1: a v1 chain verifies unchanged under the v2
reader, and a v2 run's attestations are comparable with a v1 run's.

Every write is crash-consistent: serialize to ``<file>.tmp``, flush,
``fsync``, ``os.replace`` onto the final name, ``fsync`` the directory.
A truncation at *any* byte offset is detected (frame underflow or
checksum mismatch) and reported with a schema-versioned diagnostic; the
chain loader then falls back to the newest intact checkpoint -- never a
silent partial restore.  ``run.json`` (written before the first
checkpoint) records the rebuild spec so even a run killed during build
can be resumed.  Versioning follows the bench-history migration-chain
pattern: ``_MIGRATIONS[v]`` upgrades a manifest/state pair from v to v+1.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.durability import chaos
from repro.serialization.archive import (
    ArchiveError, BufferInputArchive, BufferOutputArchive,
)

CHECKPOINT_SCHEMA = "repro.durability/checkpoint"
CHECKPOINT_VERSION = 2

#: Default cadence (events between checkpoints); matches the ledger
#: heartbeat default so both hooks share the run's rhythm.
DEFAULT_EVERY = 2048

#: The per-run rebuild manifest, written before any checkpoint exists.
RUN_MANIFEST = "run.json"

_CKPT_RE = re.compile(r"^ckpt-(\d{6})-(\d{12})\.ckpt$")


class CheckpointError(ValueError):
    """A structurally invalid or unreadable checkpoint."""


class ResumeMismatchError(CheckpointError):
    """Replay diverged from a stored checkpoint (state digest or cadence)."""


class ResumeConfigError(CheckpointError):
    """Resume requested with a config that contradicts the stored spec."""


def run_id_for(spec: Dict[str, Any]) -> str:
    """Canonical durable run id of a bench cell (same shape the run
    ledger uses): ``<app>-seed<seed>-<engine>``."""
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
    #: Ordinal of the execute phase (fence) this checkpoint was taken in
    #: (1-based); physical resume restores at that phase boundary.
    phase_idx: int = 0
    #: Registry-pickled physical state; b"" = logical-only checkpoint.
    heap: bytes = b""
    path: Optional[str] = None

    def manifest(self, host: float = 0.0) -> Dict[str, Any]:
        # ``host`` (wall-clock write time) is carried for inspection but
        # excluded from every digest: two identical runs at different
        # times must produce identical attestations.
        return {
            "run": self.run_id, "index": self.index, "events": self.events,
            "sim": self.sim, "seq": self.seq, "every": self.every,
            "spec": dict(self.spec), "state_digest": self.state_digest,
            "prev_digest": self.prev_digest, "phase_idx": self.phase_idx,
            "heap_bytes": len(self.heap), "host": host,
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
    if ckpt.version >= 2:
        arch.store(bytes(ckpt.heap))
    body = arch.bytes()
    arch.store(hashlib.sha256(body).digest())
    return arch.bytes()


def write_checkpoint(path: str, ckpt: Checkpoint, host: float = 0.0) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    _atomic_write(path, encode_checkpoint(ckpt, host))
    ckpt.path = path
    return path


def _migrate_v1_to_v2(manifest: Dict[str, Any],
                      state: Dict[str, Any]) -> Tuple[dict, dict]:
    """v1 -> v2: logical-only checkpoints gain the (empty) physical
    fields.  The state core and its digest are unchanged, so v1 chains
    keep verifying byte-for-byte."""
    manifest = dict(manifest)
    manifest.setdefault("phase_idx", 0)
    manifest.setdefault("heap_bytes", 0)
    return manifest, state


#: version -> migration of (manifest, state) to the *next* version,
#: applied in sequence -- the bench-history pattern.
_MIGRATIONS: Dict[int, Callable[[Dict[str, Any], Dict[str, Any]],
                                Tuple[Dict[str, Any], Dict[str, Any]]]] = {
    1: _migrate_v1_to_v2,
}


def read_checkpoint(path: str) -> Checkpoint:
    """Decode + fully validate one checkpoint file.

    Any truncation, corruption or version skew raises
    :class:`CheckpointError` with a diagnostic naming the schema version
    involved -- a damaged file is never partially restored.
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
        if not isinstance(version, int) or version < 1:
            raise CheckpointError(
                f"{path}: bad checkpoint version {version!r} "
                f"(reader supports v{CHECKPOINT_VERSION})"
            )
        if version > CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint schema v{version} is newer than this "
                f"code's v{CHECKPOINT_VERSION}"
            )
        manifest = json.loads(arch.load())
        state = json.loads(arch.load())
        heap = arch.load() if version >= 2 else b""
        if not isinstance(heap, bytes):
            raise CheckpointError(
                f"{path}: heap frame is {type(heap).__name__}, expected "
                f"bytes (schema {CHECKPOINT_SCHEMA} v{version})"
            )
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
    while version < CHECKPOINT_VERSION:
        manifest, state = _MIGRATIONS[version](manifest, state)
        version += 1
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
        version=version, phase_idx=int(manifest.get("phase_idx", 0)),
        heap=heap, path=path,
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
    ``latest`` is always safe to verify against.
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


def _dump_executable(ex: Any) -> Dict[str, Any]:
    """One Executable's mutable bookkeeping for the physical blob.

    ``_pending`` is keyed by ``tt.id`` -- a process-global counter that is
    *not* stable across processes -- so entries are stored against the
    template-task object itself (which pickles as a registry reference)
    and re-keyed by the restoring process's ids on load.
    """
    tts = {tt.id: tt for tt in ex.graph.tts}
    return {
        "pending": [
            (tts[ttid], key, list(p.slots), list(p.counts), list(p.expected))
            for (ttid, key), p in ex._pending.items()
        ],
        "task_counts": dict(ex.task_counts),
    }


def _load_executable(ex: Any, state: Dict[str, Any]) -> None:
    from repro.core.graph import _Pending

    # The snapshot stores the three lists only; what an instance derives
    # from them (its readiness counter) is rebuilt by _Pending.restore.
    ex._pending = {
        (tt.id, key): _Pending.restore(tt, slots, counts, expected)
        for tt, key, slots, counts, expected in state["pending"]
    }
    ex.task_counts.clear()
    ex.task_counts.update(state["task_counts"])


class Checkpointer:
    """Periodic crash-consistent checkpoints of one backend's run.

    Write mode (``resume=False``): installs the engine's
    ``on_checkpoint`` hook at construction-time cadence and writes one
    atomic checkpoint file per cadence point (plus one at every completed
    drain, so finished runs carry a terminal attestation).

    Resume mode (``resume=True``): loads the stored chain.  When the
    newest checkpoint carries physical heap bytes (format v2) and
    ``verify`` is False, the prefix replay is skipped entirely: the
    restore happens at the checkpoint's execute-phase boundary, the
    recomputed logical core must hash to the stored attestation, and the
    run continues from the exact cadence point.  Otherwise (``verify=True``
    or a logical-only chain) every cadence point covered by a stored
    checkpoint is re-verified against its digest during replay
    (:class:`ResumeMismatchError` on divergence); past the chain the
    checkpointer transparently switches to write mode.  A spec passed
    alongside ``resume=True`` must equal the stored spec
    (:class:`ResumeConfigError` names the differing keys).

    Attach via :meth:`repro.runtime.base.Backend.attach_checkpointer`.
    """

    def __init__(
        self,
        directory: str,
        run_id: str,
        *,
        spec: Optional[Dict[str, Any]] = None,
        every: int = DEFAULT_EVERY,
        resume: bool = False,
        verify: bool = False,
    ) -> None:
        if every < 1:
            raise CheckpointError(f"checkpoint_every must be >= 1, got {every}")
        self.directory = directory
        self.run_id = run_id
        self.run_dir = os.path.join(directory, run_id)
        self.every = int(every)
        self.spec: Dict[str, Any] = dict(spec or {})
        self.resuming = resume
        self.verify = verify
        self.written = 0
        self.verified = 0
        self.restored = False      # a physical restore happened
        self.restored_events = 0   # events skipped by that restore
        self.problems: List[str] = []
        self.backend: Any = None
        self.executables: List[Any] = []
        self._pending: List[Checkpoint] = []
        self._index = 0          # ordinal of the next cadence point
        self._last_digest = ""
        self._phase_seen = 0     # execute phases entered so far
        self._restore_target: Optional[Checkpoint] = None
        self._capture_disabled = False  # sticky after one pickle failure
        if resume:
            manifest = read_run_manifest(directory, run_id)
            stored = dict(manifest.get("spec", {}))
            if spec is not None and dict(spec) != stored:
                diff = sorted(
                    k for k in set(spec) | set(stored)
                    if dict(spec).get(k) != stored.get(k)
                )
                raise ResumeConfigError(
                    f"resume of {run_id!r} with a mismatched config: "
                    f"key(s) {diff} differ from the stored spec "
                    f"(stored: {_canonical(stored)})"
                )
            self.spec = stored
            self.every = int(manifest.get("every", self.every))
            chain = load_chain(directory, run_id)
            self.problems = list(chain.problems)
            self._pending = list(chain.checkpoints)
            last = chain.latest
            if not verify and last is not None and last.heap \
                    and last.phase_idx > 0:
                self._restore_target = last
        else:
            os.makedirs(self.run_dir, exist_ok=True)
            for name in os.listdir(self.run_dir):
                if _CKPT_RE.match(name):  # stale files of a previous run
                    os.unlink(os.path.join(self.run_dir, name))
            write_run_manifest(directory, run_id, self.spec, self.every)

    # ------------------------------------------------------------- binding

    @property
    def resume_events(self) -> int:
        """Events covered by the stored chain being verified (0 = none)."""
        return self._pending[-1].events if self._pending else 0

    @property
    def resume_point(self) -> str:
        """Human-readable description of where the resume picks up."""
        if not self.resuming:
            return ""
        last = self._pending[-1] if self._pending else None
        if last is None:
            return f"{self.run_id}/start"
        return f"{self.run_id}/ckpt-{last.index}@events={last.events}"

    def bind(self, backend: Any) -> None:
        """Install the engine hook; called by ``attach_checkpointer``."""
        self.backend = backend
        engine = backend.engine
        engine.on_checkpoint = self._hook
        engine.checkpoint_every = self.every
        self._chain_chaos_hooks(engine)
        if self.resuming:
            tel = backend.telemetry
            if tel is not None and tel.bus.recording:
                tel.bus.instant(
                    "resume", 0, 905, cat="ckpt",
                    run=self.run_id, point=self.resume_point,
                    checkpoints=len(self._pending),
                    events=self.resume_events,
                )
            if backend.ledger is not None:
                backend.ledger.resume(
                    run=self.run_id, point=self.resume_point,
                    checkpoints=len(self._pending), events=self.resume_events,
                )
        chaos.poke("phase", phase="build")

    def _chain_chaos_hooks(self, engine: Any) -> None:
        """Give an armed heartbeat fault plan something to fire on
        (chained in front of any existing hook; test-path only)."""
        plan = chaos.active()
        if plan is None or plan.site != "heartbeat":
            return
        prev_hb = engine.on_heartbeat

        def _hb(now: float, events: int) -> None:
            chaos.poke("heartbeat", events=events)
            if prev_hb is not None:
                prev_hb(now, events)

        engine.on_heartbeat = _hb
        if not engine.heartbeat_every:
            engine.heartbeat_every = self.every

    def bind_executable(self, ex: Any) -> None:
        """Track one Executable's bookkeeping in the snapshot (called by
        :class:`repro.core.graph.Executable` at construction)."""
        self.executables.append(ex)

    def phase(self, name: str) -> None:
        """Life-cycle transition: a fault-injection site, and -- on
        entering the execute phase a physical checkpoint was taken in --
        the restore seam.  :meth:`repro.runtime.base.Backend.run` calls
        ``phase("execute")`` right before draining the engine, which is
        exactly where the checkpointed heaps replace the freshly built
        pre-run events."""
        chaos.poke("phase", phase=name)
        if name != "execute":
            return
        self._phase_seen += 1
        target = self._restore_target
        if target is not None and self._phase_seen == target.phase_idx:
            self._restore_target = None
            self._restore_physical(target)

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
        term = backend.termination
        termination: Dict[str, Any] = {
            "messages_sent": term.messages_sent,
            "messages_delivered": term.messages_delivered,
            "tasks_created": term.tasks_created,
            "tasks_retired": term.tasks_retired,
        }
        state: Dict[str, Any] = {
            "engine": eng,
            "stats": backend.stats.as_dict(),
            "termination": termination,
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

    # ------------------------------------------------- physical state (v2)

    def _capture_heap(self) -> bytes:
        """Registry-pickle the full physical runtime state, or return
        ``b""`` (a logical-only checkpoint) when the run is not capturable.

        Not capturable: a backend whose heap entries do not pickle
        (``heap_picklable`` False -- e.g. MADNESS World futures are
        address-space local), an armed sanitizer or non-empty
        GPU residency cache (both track objects by ``id()``), or any
        payload that fails to pickle.
        """
        backend = self.backend
        if backend is None or self._capture_disabled:
            return b""
        if not getattr(backend, "heap_picklable", False):
            return b""
        if backend.sanitizer is not None:
            return b""
        for pool in backend.pools:
            if pool._resident:
                return b""
        comm = backend.comm
        rma = backend.rma
        blob: Dict[str, Any] = {
            "engine": backend.engine.dump_state(),
            "termination": backend.termination.dump_state(),
            "stats": backend.stats.as_dict(),
            "comm": {
                "am_free": list(comm._am_free),
                "am_count": comm.am_count, "am_bytes": comm.am_bytes,
                "rma_count": comm.rma_count, "rma_bytes": comm.rma_bytes,
            },
            "rma": {"regions": dict(rma._regions), "next": rma._next},
            "pools": [
                {"queue": pool._queue.dump_state(),
                 "gpu_queue": pool._gpu_queue.dump_state(),
                 "idle": list(pool._idle), "gpu_idle": list(pool._gpu_idle),
                 "gpu_tasks_executed": pool.gpu_tasks_executed,
                 "gpu_transfer_bytes": pool.gpu_transfer_bytes}
                for pool in backend.pools
            ],
            "executables": [_dump_executable(ex)
                            for ex in backend.executables],
        }
        net = getattr(backend.cluster, "network", None)
        if net is not None:
            blob["network"] = {
                "tx_free": list(net._tx_free),
                "backbone_free": net._backbone_free,
                "messages_sent": net.messages_sent,
                "bytes_sent": net.bytes_sent,
            }
        tel = backend.telemetry
        if tel is not None:
            blob["telemetry"] = {"bus": tel.bus.dump_state(),
                                 "metrics": tel.metrics.dump_state()}
        try:
            from repro.runtime.registry import RuntimeRegistry

            return RuntimeRegistry.for_backend(backend).dumps(blob)
        except Exception as e:  # noqa: BLE001 - degrade, never fail the run
            self._capture_disabled = True
            self.problems.append(
                f"physical capture disabled (logical checkpoints continue): "
                f"{type(e).__name__}: {e}"
            )
            return b""

    def _restore_physical(self, ckpt: Checkpoint) -> None:
        """Load ``ckpt``'s heap bytes into the freshly rebuilt runtime and
        fast-forward the chain cursor past the stored checkpoints.  Always
        self-verifying: the restored runtime's recomputed logical core
        must hash to the stored attestation digest.  A blob that does not
        unpickle, or whose engine state the engine refuses, changes
        nothing: the engine is the first thing loaded, all or nothing."""
        backend = self.backend
        if backend is None:
            raise CheckpointError("physical restore requires bind() first")
        from repro.runtime.registry import RuntimeRegistry

        try:
            blob = RuntimeRegistry.for_backend(backend).loads(ckpt.heap)
            if len(blob["executables"]) == len(backend.executables):
                backend.engine.load_state(blob["engine"])
        except Exception as e:
            raise ResumeMismatchError(
                f"resume of {self.run_id!r}: physical state of checkpoint "
                f"#{ckpt.index} does not load against the rebuilt runtime "
                f"({type(e).__name__}: {e}); resume with verify=True to "
                f"replay instead"
            ) from e
        if len(blob["executables"]) != len(backend.executables):
            raise ResumeMismatchError(
                f"resume of {self.run_id!r}: checkpoint #{ckpt.index} "
                f"captured {len(blob['executables'])} executable(s), the "
                f"rebuilt backend has {len(backend.executables)}"
            )
        backend.termination.load_state(blob["termination"])
        stats = backend.stats
        for k, v in blob["stats"].items():
            setattr(stats, k, dict(v) if isinstance(v, dict) else v)
        comm = backend.comm
        c = blob["comm"]
        comm._am_free[:] = c["am_free"]
        comm.am_count = c["am_count"]
        comm.am_bytes = c["am_bytes"]
        comm.rma_count = c["rma_count"]
        comm.rma_bytes = c["rma_bytes"]
        rma = backend.rma
        r = blob["rma"]
        rma._regions = dict(r["regions"])
        rma._next = r["next"]
        net = getattr(backend.cluster, "network", None)
        n = blob.get("network")
        if net is not None and n is not None:
            net._tx_free[:] = n["tx_free"]
            net._backbone_free = n["backbone_free"]
            net.messages_sent = n["messages_sent"]
            net.bytes_sent = n["bytes_sent"]
        for pool, ps in zip(backend.pools, blob["pools"]):
            pool._queue.load_state(ps["queue"])
            pool._gpu_queue.load_state(ps["gpu_queue"])
            pool._idle = list(ps["idle"])
            pool._gpu_idle = list(ps["gpu_idle"])
            pool.gpu_tasks_executed = ps["gpu_tasks_executed"]
            pool.gpu_transfer_bytes = ps["gpu_transfer_bytes"]
        for ex, es in zip(backend.executables, blob["executables"]):
            _load_executable(ex, es)
        tel = backend.telemetry
        t = blob.get("telemetry")
        if tel is not None and t is not None:
            tel.bus.load_state(t["bus"])
            tel.metrics.load_state(t["metrics"])
        state = self.snapshot()
        digest = state_digest(state)
        if digest != ckpt.state_digest:
            bad = sorted(
                k for k in set(state) | set(ckpt.state)
                if state.get(k) != ckpt.state.get(k)
            )
            raise ResumeMismatchError(
                f"resume of {self.run_id!r} diverged at physically restored "
                f"checkpoint #{ckpt.index} (events={ckpt.events}): restored "
                f"state hashes to {digest[:12]}, stored attestation is "
                f"{ckpt.state_digest[:12]} (differing section(s): {bad})"
            )
        self._index = len(self._pending)
        self._last_digest = ckpt.state_digest
        self.restored = True
        self.restored_events = ckpt.events
        if backend.ledger is not None:
            backend.ledger.resume(
                run=self.run_id, point=self.resume_point,
                checkpoints=len(self._pending), events=ckpt.events,
                physical=True,
            )

    # ---------------------------------------------------------------- hook

    def _hook(self, now: float, events: int) -> None:
        """One cadence point: verify against the stored chain or write."""
        chaos.poke("checkpoint", index=self._index, events=events)
        index = self._index
        self._index = index + 1
        state = self.snapshot()
        digest = state_digest(state)
        backend = self.backend
        tel = backend.telemetry
        if tel is not None and tel.bus.recording:
            # Emitted identically in write and verify mode, so a resumed
            # run's trace is indistinguishable from an uninterrupted one
            # (bar the deliberate "resume" marker).
            tel.bus.instant("checkpoint", 0, 905, cat="ckpt",
                            index=index, events=events, digest=digest[:12])
        if backend.ledger is not None:
            backend.ledger.checkpoint(sim=now, events=events, index=index,
                                      digest=digest[:12])
        if index < len(self._pending):
            exp = self._pending[index]
            if events != exp.events or now != exp.sim:
                raise ResumeMismatchError(
                    f"resume of {self.run_id!r} diverged at checkpoint "
                    f"#{index}: replay reached (events={events}, sim={now}) "
                    f"but the stored checkpoint recorded "
                    f"(events={exp.events}, sim={exp.sim}) -- the code or "
                    f"environment changed since the checkpoint was written"
                )
            if digest != exp.state_digest:
                bad = sorted(
                    k for k in set(state) | set(exp.state)
                    if state.get(k) != exp.state.get(k)
                )
                raise ResumeMismatchError(
                    f"resume of {self.run_id!r} diverged at checkpoint "
                    f"#{index} (events={events}): state digest "
                    f"{digest[:12]} != stored {exp.state_digest[:12]} "
                    f"(differing section(s): {bad})"
                )
            self.verified += 1
            self._last_digest = digest
            return
        import time as _time

        ckpt = Checkpoint(
            run_id=self.run_id, index=index, events=events, sim=now,
            seq=backend.engine._seq, every=self.every, spec=self.spec,
            state=state, state_digest=digest, prev_digest=self._last_digest,
            phase_idx=self._phase_seen, heap=self._capture_heap(),
        )
        write_checkpoint(
            checkpoint_path(self.directory, self.run_id, index, events),
            ckpt, host=_time.time(),
        )
        self._last_digest = digest
        self.written += 1

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
