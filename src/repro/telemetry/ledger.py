"""Append-only, versioned run ledger: a live JSONL stream of one execution.

Everything the telemetry stack produced before this module is
*post-mortem*: traces and counters exist only after a run finishes and an
exporter walks the ring buffers.  The run ledger inverts that: records are
flushed to disk **while the run executes**, so a killed 64-rank MRA run
still leaves a readable file whose last heartbeat tells you exactly how
far it got -- and a live consumer (``python -m repro.telemetry watch``)
can tail the file and render progress as it happens.  This is the
addressable-run substrate the ROADMAP's checkpoint/resume and
simulation-as-a-service items build on: a run id plus a monotonic record
stream is what makes an execution an inspectable job.

Ledger format: one JSON object per line.  The first line is the header::

    {"type": "ledger_open", "schema": "repro.telemetry/ledger",
     "version": 1, "run": "<run-id>", "seq": 0, "host": <unix-time>, ...}

Every subsequent record carries the same ``run`` id and a strictly
increasing ``seq``, so interleaved or concatenated ledgers can be
demultiplexed and a torn tail (the process died mid-write) is detected by
the reader and dropped, never fatal.  Record types:

- ``phase`` -- life-cycle transition (``build`` / ``fence`` / ``execute``
  / ``drain``), with the virtual clock at the transition.
- ``heartbeat`` -- periodic liveness while the event loop runs: virtual
  clock, host clock, events processed.
- ``progress`` -- incremental snapshot: tasks done/created (total), the
  per-template task breakdown, bytes by protocol, virtual clock.
- ``window`` -- one conservative window of the sharded engine (written
  by :class:`repro.telemetry.health.ShardHealthProfiler`): window width,
  lookahead, events executed, per-shard split, heap depths, clock skew,
  stalled/quiescent ranks.
- ``quiescence`` -- a rank-quiescence transition on the sharded engine's
  per-rank termination ledger.
- ``checkpoint`` (v2) -- a durable checkpoint was written or verified at
  this cadence point (:mod:`repro.durability.checkpoint`): virtual clock,
  events processed, chain index, state-digest prefix.
- ``resume`` (v2) -- this run resumed a killed predecessor: the resume
  point and how many stored checkpoints will be verified during replay.
  A resumed run may *append* to its predecessor's ledger file
  (``LedgerWriter(append=True)``); the resume record is then the takeover
  boundary -- it may follow a torn line (the predecessor died mid-write),
  carries the resuming run's id, and restarts the ``seq`` counter.
- ``retry`` / ``failure`` (v2) -- a benchmark-matrix cell crashed in the
  worker pool and was retried with backoff / permanently failed
  (:mod:`repro.bench.parallel`).
- ``fallback`` (v2, pool ledgers only) -- a matrix that asked for a
  process pool ran inline instead, with the reason.
- ``ledger_close`` -- final snapshot; its absence means the run died.

The writer flushes every record (a ledger exists to survive a kill);
readers therefore never see a partially missing middle, only possibly a
torn last line.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

LEDGER_SCHEMA = "repro.telemetry/ledger"
# v2: durability records (checkpoint / resume) and pool-resilience
# records (retry / failure).  v1 ledgers remain readable unchanged --
# the new types are purely additive.
LEDGER_VERSION = 2

#: Record types a valid ledger may contain.
RECORD_TYPES = (
    "ledger_open", "phase", "heartbeat", "progress", "window",
    "quiescence", "checkpoint", "resume", "retry", "failure", "fallback",
    "ledger_close",
)

#: Life-cycle phases in their canonical order (watch renders them as a
#: progress rail; out-of-order transitions are legal -- fence may recur).
PHASES = ("build", "fence", "execute", "drain")

_run_counter = count(1)


def new_run_id(tag: str = "run") -> str:
    """A unique, filesystem-safe run id: tag, pid, per-process counter
    and a time component (uniqueness across processes and restarts)."""
    return f"{tag}-{os.getpid()}-{next(_run_counter)}-{int(time.time() * 1e3) % 10**10:x}"


class LedgerError(ValueError):
    """A structurally invalid ledger (bad header, wrong schema...)."""


class LedgerWriter:
    """Append-only JSONL writer for one run.

    ``path=None`` writes no file (sink-only mode: live rendering without
    persistence).  ``sinks`` are callables receiving every record dict as
    it is emitted -- the live dashboard subscribes here.  Every record is
    flushed immediately so a kill leaves at most one torn line.

    ``append=True`` takes over an existing ledger file of a killed
    predecessor run: the file is opened for appending and **no**
    ``ledger_open`` header is written -- the caller must emit
    :meth:`resume` as its first record, which is the takeover boundary
    the reader and :func:`validate_ledger` recognize.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        run_id: Optional[str] = None,
        sinks: Tuple[Callable[[Dict[str, Any]], None], ...] = (),
        meta: Optional[Dict[str, Any]] = None,
        append: bool = False,
    ) -> None:
        self.run_id = run_id or new_run_id()
        self.path = path
        mode = "a" if append else "w"
        self._fh: Optional[io.TextIOBase] = open(path, mode) if path else None
        if append and self._fh is not None and path is not None:
            # The predecessor may have died mid-write without a trailing
            # newline; terminate its torn line so our records start clean.
            if os.path.getsize(path) > 0:
                with open(path, "rb") as rf:
                    rf.seek(-1, os.SEEK_END)
                    if rf.read(1) != b"\n":
                        self._fh.write("\n")
                        self._fh.flush()
        self._sinks = list(sinks)
        self._seq = count(0)
        self.records_written = 0
        self.closed = False
        if not append:
            self.emit("ledger_open", schema=LEDGER_SCHEMA,
                      version=LEDGER_VERSION, host=time.time(),
                      **(meta or {}))

    # --------------------------------------------------------------- output

    def add_sink(self, sink: Callable[[Dict[str, Any]], None]) -> None:
        self._sinks.append(sink)

    def emit(self, type: str, **fields: Any) -> Dict[str, Any]:
        """Write one record; returns the record dict (with run/seq set)."""
        if self.closed:
            raise LedgerError(f"ledger {self.run_id} already closed")
        rec = {"type": type, "run": self.run_id, "seq": next(self._seq)}
        rec.update(fields)
        if self._fh is not None:
            self._fh.write(json.dumps(rec))
            self._fh.write("\n")
            self._fh.flush()
        self.records_written += 1
        for sink in self._sinks:
            sink(rec)
        return rec

    # -------------------------------------------------------- record helpers

    def phase(self, name: str, sim: float = 0.0, **fields: Any) -> None:
        self.emit("phase", phase=name, sim=sim, **fields)

    def heartbeat(self, sim: float, events: int, **fields: Any) -> None:
        self.emit("heartbeat", sim=sim, events=events, host=time.time(),
                  **fields)

    def progress(
        self,
        sim: float,
        tasks_done: int,
        tasks_total: int,
        by_template: Optional[Dict[str, int]] = None,
        bytes_by_protocol: Optional[Dict[str, int]] = None,
        **fields: Any,
    ) -> None:
        self.emit("progress", sim=sim, tasks_done=tasks_done,
                  tasks_total=tasks_total,
                  by_template=dict(by_template or {}),
                  bytes_by_protocol=dict(bytes_by_protocol or {}), **fields)

    def window(self, **fields: Any) -> None:
        self.emit("window", **fields)

    def quiescence(self, **fields: Any) -> None:
        self.emit("quiescence", **fields)

    def checkpoint(self, sim: float, events: int, **fields: Any) -> None:
        """A durable checkpoint was written/verified at this cadence
        point (v2; emitted by the durability checkpointer)."""
        self.emit("checkpoint", sim=sim, events=events, host=time.time(),
                  **fields)

    def resume(self, **fields: Any) -> None:
        """This run resumes a killed predecessor (v2)."""
        self.emit("resume", host=time.time(), **fields)

    def retry(self, **fields: Any) -> None:
        """A benchmark cell crashed and is being retried (v2)."""
        self.emit("retry", host=time.time(), **fields)

    def failure(self, **fields: Any) -> None:
        """A benchmark cell permanently failed after its retries (v2)."""
        self.emit("failure", host=time.time(), **fields)

    def fallback(self, **fields: Any) -> None:
        """A pooled benchmark matrix ran inline instead (v2)."""
        self.emit("fallback", host=time.time(), **fields)

    def close(self, sim: float = 0.0, **fields: Any) -> None:
        """Emit the final snapshot and close the file.  Idempotent."""
        if self.closed:
            return
        self.emit("ledger_close", sim=sim, host=time.time(), **fields)
        self.closed = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -------------------------------------------------------------------- read


def iter_ledger(path: str) -> Iterator[Dict[str, Any]]:
    """Yield the parseable records of a ledger file.

    A torn final line (the writer was killed mid-write) is silently
    dropped.  A torn line followed by a parseable ``resume`` record is the
    crash/resume boundary of an append-mode takeover
    (``LedgerWriter(append=True)``): the torn record is skipped and
    reading continues.  A torn line followed by anything *else* raises,
    because that means corruption rather than a kill.
    """
    pending_error: Optional[str] = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                if pending_error is not None:
                    raise LedgerError(pending_error)
                pending_error = f"{path}:{lineno}: unparseable mid-file record"
                continue
            if not isinstance(rec, dict):
                raise LedgerError(f"{path}:{lineno}: record is not an object")
            if pending_error is not None:
                if rec.get("type") != "resume":
                    raise LedgerError(pending_error)
                # The predecessor died mid-write and a resumed run took
                # the file over: drop the torn record, keep reading.
                pending_error = None
            yield rec


def read_ledger(path: str) -> List[Dict[str, Any]]:
    """All records of a ledger file (torn tail dropped, see iter_ledger)."""
    return list(iter_ledger(path))


def validate_ledger(records: List[Dict[str, Any]]) -> List[str]:
    """Structural check; returns problems (empty = valid).

    Every message that involves the schema names the version it found,
    so a consumer built against a different version fails loudly and
    explains itself.
    """
    if not records:
        return ["empty ledger (no records)"]
    head = records[0]
    problems: List[str] = []
    version = head.get("version")
    if head.get("type") != "ledger_open":
        problems.append(
            f"first record is {head.get('type')!r}, expected 'ledger_open' "
            f"(ledger schema v{LEDGER_VERSION})"
        )
    if head.get("schema") != LEDGER_SCHEMA:
        problems.append(
            f"header schema is {head.get('schema')!r}, expected "
            f"{LEDGER_SCHEMA!r} v{LEDGER_VERSION}"
        )
    elif not isinstance(version, int) or version > LEDGER_VERSION:
        problems.append(
            f"ledger schema version {version!r} is newer than this "
            f"code's v{LEDGER_VERSION}"
        )
    run = head.get("run")
    prev_seq = -1
    for i, rec in enumerate(records):
        where = f"record[{i}] (ledger schema v{version})"
        rtype = rec.get("type")
        if rtype not in RECORD_TYPES:
            problems.append(f"{where}: unknown record type {rtype!r}")
        if rtype == "resume" and i > 0 and rec.get("run") != run:
            # Append-mode takeover: the resuming run writes under its own
            # id with a fresh seq counter from here on.
            run = rec.get("run")
            prev_seq = -1
        if rec.get("run") != run:
            problems.append(f"{where}: run id {rec.get('run')!r} != header "
                            f"{run!r}")
        seq = rec.get("seq")
        if not isinstance(seq, int) or seq <= prev_seq:
            problems.append(f"{where}: seq {seq!r} not monotonically "
                            f"increasing (prev {prev_seq})")
        else:
            prev_seq = seq
        if rtype == "phase" and rec.get("phase") not in PHASES:
            problems.append(f"{where}: unknown phase {rec.get('phase')!r}")
    return problems


# ------------------------------------------------------------------ replay


@dataclass
class LedgerSnapshot:
    """The state of a run as reconstructed from its ledger records.

    Replaying a completed ledger and replaying a torn one differ only in
    ``complete`` and how fresh the aggregates are -- which is the point:
    the last flushed heartbeat/progress record *is* the recovery state.
    """

    run_id: str = ""
    schema_version: int = 0
    phase: str = ""
    phases_seen: List[str] = field(default_factory=list)
    sim: float = 0.0
    events: int = 0
    heartbeats: int = 0
    last_host: float = 0.0
    first_host: float = 0.0
    tasks_done: int = 0
    tasks_total: int = 0
    by_template: Dict[str, int] = field(default_factory=dict)
    bytes_by_protocol: Dict[str, int] = field(default_factory=dict)
    windows: int = 0
    last_window: Dict[str, Any] = field(default_factory=dict)
    window_widths: List[float] = field(default_factory=list)
    events_by_shard: List[int] = field(default_factory=list)
    ranks_quiescent: int = 0
    nranks: int = 0
    checkpoints: int = 0
    last_checkpoint: Dict[str, Any] = field(default_factory=dict)
    resumed_from: str = ""
    retries: int = 0
    failures: int = 0
    complete: bool = False
    records: int = 0

    @property
    def progress_fraction(self) -> float:
        """Done/total task fraction (total = tasks discovered so far)."""
        return self.tasks_done / self.tasks_total if self.tasks_total else 0.0

    def eta_seconds(self) -> Optional[float]:
        """Host-time ETA from the observed completion rate, or ``None``
        when the run is complete or no rate is measurable yet."""
        if self.complete or self.tasks_done == 0:
            return None
        elapsed = self.last_host - self.first_host
        if elapsed <= 0.0:
            return None
        rate = self.tasks_done / elapsed
        remaining = max(self.tasks_total - self.tasks_done, 0)
        return remaining / rate if rate > 0 else None

    def apply(self, rec: Dict[str, Any]) -> None:
        """Fold one ledger record into the snapshot."""
        self.records += 1
        rtype = rec.get("type")
        if "sim" in rec:
            self.sim = max(self.sim, float(rec["sim"]))
        if rtype == "ledger_open":
            self.run_id = rec.get("run", "")
            self.schema_version = int(rec.get("version", 0))
            self.first_host = float(rec.get("host", 0.0))
            self.last_host = self.first_host
            if rec.get("resumed_from"):
                self.resumed_from = str(rec["resumed_from"])
        elif rtype == "phase":
            self.phase = rec.get("phase", "")
            if self.phase not in self.phases_seen:
                self.phases_seen.append(self.phase)
        elif rtype == "heartbeat":
            self.heartbeats += 1
            self.events = int(rec.get("events", self.events))
            self.last_host = float(rec.get("host", self.last_host))
        elif rtype == "progress":
            self.tasks_done = int(rec.get("tasks_done", self.tasks_done))
            self.tasks_total = int(rec.get("tasks_total", self.tasks_total))
            for k, v in (rec.get("by_template") or {}).items():
                self.by_template[k] = int(v)
            for k, v in (rec.get("bytes_by_protocol") or {}).items():
                self.bytes_by_protocol[k] = int(v)
        elif rtype == "window":
            self.windows += 1
            self.last_window = rec
            if "width" in rec:
                self.window_widths.append(float(rec["width"]))
            per_shard = rec.get("events_by_shard")
            if per_shard:
                if len(self.events_by_shard) < len(per_shard):
                    self.events_by_shard.extend(
                        [0] * (len(per_shard) - len(self.events_by_shard)))
                for s, n in enumerate(per_shard):
                    self.events_by_shard[s] += int(n)
                self.nranks = max(self.nranks, len(per_shard))
            if "ranks_quiescent" in rec:
                self.ranks_quiescent = int(rec["ranks_quiescent"])
        elif rtype == "quiescence":
            self.ranks_quiescent = int(
                rec.get("ranks_quiescent", self.ranks_quiescent))
            self.nranks = max(self.nranks, int(rec.get("nranks", 0)))
        elif rtype == "checkpoint":
            self.checkpoints += 1
            self.last_checkpoint = rec
            self.events = int(rec.get("events", self.events))
            self.last_host = float(rec.get("host", self.last_host))
        elif rtype == "resume":
            self.resumed_from = str(rec.get("point", "")) or self.resumed_from
        elif rtype == "retry":
            self.retries += 1
        elif rtype == "failure":
            self.failures += 1
        elif rtype == "ledger_close":
            self.complete = True
            self.last_host = float(rec.get("host", self.last_host))


def replay(records: List[Dict[str, Any]]) -> LedgerSnapshot:
    """Fold a record list into the final :class:`LedgerSnapshot`."""
    snap = LedgerSnapshot()
    for rec in records:
        snap.apply(rec)
    return snap


def replay_path(path: str) -> LedgerSnapshot:
    return replay(read_ledger(path))


# ----------------------------------------------------------------- capture


class ledger_capture:
    """Attach a fresh :class:`LedgerWriter` to every backend a block binds.

    The ledger analogue of :func:`repro.telemetry.adapter.capture`: hooks
    :class:`~repro.core.graph.Executable` construction, so scripts and
    figure benchmarks need no cooperation::

        with ledger_capture("ledgers/") as ledgers:
            run_experiment()
        # ledgers/: one <label>.ledger.jsonl per backend bound

    ``directory=None`` with ``live=True`` streams progress to the console
    without persisting anything.  Open ledgers are closed (with a final
    progress snapshot) on context exit.
    """

    def __init__(self, directory: Optional[str] = None, *, live: bool = False,
                 prefix: str = "run", heartbeat_every: int = 2048) -> None:
        self.directory = directory
        self.live = live
        self.prefix = prefix
        self.heartbeat_every = heartbeat_every
        self.writers: List[LedgerWriter] = []
        self._backends: List[Any] = []
        self._seen: set = set()

    def _observer(self, kind: str, obj: Any) -> None:
        if kind != "executable":
            return
        backend = obj.backend
        if id(backend) in self._seen:
            return
        self._seen.add(id(backend))
        run_id = new_run_id(self.prefix)
        path = None
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            path = os.path.join(self.directory, f"{run_id}.ledger.jsonl")
        sinks: Tuple[Callable[[Dict[str, Any]], None], ...] = ()
        if self.live:
            from repro.telemetry.live import LiveRenderer

            sinks = (LiveRenderer().feed,)
        writer = LedgerWriter(
            path, run_id=run_id, sinks=sinks,
            meta={"backend": getattr(backend, "name", "backend"),
                  "nranks": backend.nranks,
                  "graph": obj.graph.name},
        )
        backend.attach_ledger(writer, heartbeat_every=self.heartbeat_every)
        self.writers.append(writer)
        self._backends.append(backend)

    def __enter__(self) -> "ledger_capture":
        from repro.core.graph import add_construction_observer

        add_construction_observer(self._observer)
        return self

    def __exit__(self, *exc: Any) -> None:
        from repro.core.graph import remove_construction_observer

        remove_construction_observer(self._observer)
        for backend in self._backends:
            backend.close_ledger()  # final snapshot + health summary
        for writer in self.writers:
            writer.close()  # no-op when close_ledger sealed it
