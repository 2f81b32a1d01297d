"""TTG-San: an opt-in runtime sanitizer for executing task graphs.

The static linter (:mod:`repro.analysis.lint`) catches wiring defects; a
second class of defects only exists at runtime -- double-sends, task-ID
reuse, mutation of const-ref-shared data, stream control arriving after
the task fired, data stranded or leaked at termination, and data races
between ranks.  The sanitizer observes every delivery, spawn, task body
and stream-control event (hooks threaded through
:mod:`repro.core.graph`, :mod:`repro.core.messaging`, and
:mod:`repro.runtime.base`) and reports each fault with precise task/key
provenance.

Enable it per execution::

    ex = graph.executable(backend, sanitize=True)   # collect + warn
    ex = Executable.make(graph, backend, strict=True)  # raise on faults

In strict mode each fault raises :class:`~repro.core.exceptions.SanitizerError`
at the detection point; otherwise findings accumulate on
``ex.sanitizer.findings`` and are emitted as warnings.  Telemetry is not
needed for any check.

Tracking is identity-based: only *data-carrying* values (numpy arrays and
clone()-able objects such as :class:`~repro.linalg.tile.MatrixTile`) are
entered into the cref/move/lifetime/access ledgers, and the ledgers hold
strong references so Python cannot recycle an id mid-run.  Small
immutable values (ints, floats, strings, None) are never tracked.

Races (``RACE0xx``).  The simulated ranks share one host address space;
the modelled ones do not, so a buffer that two ranks reach by reference
(PaRSEC's copy-free ``cref`` send is the way there) is a hazard the
simulator alone would hide.  Happens-before is kept online, in Lamport's
message order: one vector clock per rank; a task takes its rank's clock
(own entry advanced) when its body begins; a send carries the sender's
clock and its delivery joins that clock into the receiving rank's.  Task
``a`` happens before task ``b`` iff ``b``'s clock has caught up with
``a``'s own entry, so same-rank tasks are always ordered.  Per tracked
buffer, a task that sends it or receives it by a zero-copy ``move``
writes it, a task whose inputs hold it reads it, and a delivery or task
input observes it live on that rank.  At each fence:

- **RACE001** -- a write and a read on two ranks with no happens-before;
- **RACE002** -- two such writes;
- **RACE003** -- one buffer observed live on two ranks at all;
- **RACE004** -- a SAN003 mutation detected later in virtual time than
  the body of the task that shared the buffer by cref.

Race findings are deduplicated and sorted by ``(rule, location,
message)``; the buffer of a location ``data#N`` is the N-th tracked
buffer the run touched.
"""

from __future__ import annotations

import hashlib
import warnings
from collections import deque
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.rules import Finding, get_rule
from repro.core.exceptions import SanitizerError


def _trackable(value: Any) -> bool:
    """Mutable data worth tracking: arrays and clone()-able payloads."""
    if value is None or isinstance(value, (int, float, complex, str, bytes, bool)):
        return False
    return callable(getattr(value, "clone", None)) or callable(
        getattr(value, "tobytes", None)
    )


def canonical_findings(findings: List[Finding]) -> List[Finding]:
    """Deduplicate and stably order a findings list.

    Findings merged from several sources (e.g. the cells of a forked
    sweep) can repeat one fault and arrive in any order.  Canonical form
    -- first occurrence per ``(rule, location, message)`` triple, sorted
    by that triple -- makes such lists comparable.
    """
    seen: Set[Tuple[str, str, str]] = set()
    out: List[Finding] = []
    for f in findings:
        key = (f.rule.id, f.location, f.message)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    out.sort(key=lambda f: (f.rule.id, f.location, f.message))
    return out


def merge_findings(*lists: List[Finding]) -> List[Finding]:
    """Merge findings from several sources into canonical form."""
    merged: List[Finding] = []
    for fs in lists:
        merged.extend(fs)
    return canonical_findings(merged)


def _fingerprint(value: Any) -> str:
    """Content hash of a tracked value (best effort; repr fallback)."""
    data = value
    if not callable(getattr(data, "tobytes", None)):
        data = getattr(value, "data", None)  # e.g. MatrixTile.data
    tb = getattr(data, "tobytes", None)
    if callable(tb):
        try:
            return hashlib.blake2b(tb(), digest_size=16).hexdigest()
        except Exception:
            pass
    return repr(value)


class _Stamp(NamedTuple):
    """One task body: its label, rank and vector clock."""

    label: str
    rank: int
    clock: Tuple[int, ...]


#: A routed message: sender, sender clock (None from outside any task
#: body), and the id of the value when it was moved.
_Message = Tuple[str, Optional[Tuple[int, ...]], Optional[int]]


class _Buffer:
    """The accesses to one tracked value (held strongly, so its id stays
    its own for the run)."""

    __slots__ = ("value", "number", "writes", "reads", "ranks")

    def __init__(self, value: Any, number: int) -> None:
        self.value = value
        self.number = number
        self.writes: Dict[str, _Stamp] = {}
        self.reads: Dict[str, _Stamp] = {}
        self.ranks: Set[int] = set()


def _concurrent(a: _Stamp, b: _Stamp) -> bool:
    """Two task bodies on two ranks, neither happening before the other."""
    return (a.rank != b.rank and b.clock[a.rank] < a.clock[a.rank]
            and a.clock[b.rank] < b.clock[b.rank])


class Sanitizer:
    """Per-execution fault detector; one instance per Executable."""

    def __init__(self, ex: Any, strict: bool = False) -> None:
        self.ex = ex
        self.strict = strict
        self.findings: List[Finding] = []
        # (tt.id, terminal index, key) -> provenance of the first send.
        self._routed: Dict[Tuple[int, int, Any], str] = {}
        # (tt.id, key) of instances that already fired.
        self._fired: Set[Tuple[int, Any]] = set()
        # id(value) -> (value, fingerprint at share time, sharer provenance,
        # virtual time of the share when a task body made it, else None).
        self._shared: Dict[int, Tuple[Any, str, str, Optional[float]]] = {}
        # id(value) -> (value, provenance of the last move).
        self._moved: Dict[int, Tuple[Any, str]] = {}
        # id(value) -> (value, refcount, provenance): delivered, not consumed.
        self._inflight: Dict[int, Tuple[Any, int, str]] = {}
        # (tt.id, key) -> values delivered into its streaming inputs; the
        # reducer folds them, so they are consumed when the instance fires.
        self._streamed: Dict[Tuple[int, Any], List[Any]] = {}
        self._mutation_reported: Set[int] = set()
        # Happens-before: the vector clock of each rank, and the running
        # task body as (label, rank, clock) -- None between bodies.
        n = ex.nranks
        self._clocks: List[List[int]] = [[0] * n for _ in range(n)]
        self._body: Optional[_Stamp] = None
        # (tt.id, terminal index, key) -> (sender, sender clock, id of a
        # moved value) of each routed message not yet delivered.  Messages
        # to one slot are matched to deliveries first in, first out, save
        # that a moved value finds its own message (a stream's senders can
        # arrive out of order); the instance fires after all of them, so
        # its clock joins every sender's either way.
        self._inbox: Dict[Tuple[int, int, Any], Deque[_Message]] = {}
        # (tt.id, key) -> ids of buffers it received by zero-copy move.
        self._takes: Dict[Tuple[int, Any], Set[int]] = {}
        # Those the running body took and has not moved on: it owns them.
        self._owned: Set[int] = set()
        # id(value) -> access ledger entry of one tracked buffer.
        self._buffers: Dict[int, _Buffer] = {}
        # RACE004 candidates: (sharer, location, shared at, detected at).
        self._late: List[Tuple[str, str, float, float]] = []
        self._races_reported: Set[Tuple[str, str, str]] = set()

    # -------------------------------------------------------------- report

    def record(self, rule_id: str, location: str, message: str) -> Finding:
        """Report one fault (and put it on the telemetry timeline, when
        telemetry is attached)."""
        f = Finding(get_rule(rule_id), message, location=location)
        self.findings.append(f)
        tel = getattr(self.ex.backend, "telemetry", None)
        if tel is not None and tel.bus.recording:
            from repro.telemetry.events import TID_SAN

            tel.bus.instant(rule_id, 0, TID_SAN, cat="san",
                            location=location, message=message)
        if self.strict:
            raise SanitizerError(str(f), rule=rule_id)
        warnings.warn(f"TTG-San: {f}", RuntimeWarning, stacklevel=3)
        return f

    def findings_for(self, rule_id: str) -> List[Finding]:
        return [f for f in self.findings if f.rule.id == rule_id]

    def _provenance(self) -> str:
        """Identity of the task currently executing (sender side)."""
        return "<external>" if self._body is None else self._body.label

    @staticmethod
    def _instance(tt: Any, key: Any) -> str:
        return f"{tt.name}[{key!r}]"

    def _buffer(self, value: Any) -> _Buffer:
        """The access ledger entry of a tracked value (created on first
        sighting, which numbers it)."""
        buf = self._buffers.get(id(value))
        if buf is None:
            buf = self._buffers[id(value)] = _Buffer(value, len(self._buffers) + 1)
        return buf

    # ------------------------------------------------------------ task body

    def on_body(self, tt: Any, key: Any, rank: int, args: Tuple[Any, ...]) -> None:
        """A task body begins on ``rank``: it takes the rank's clock and
        reads its tracked inputs (and writes those it took by move)."""
        clock = self._clocks[rank]
        clock[rank] += 1
        body = self._body = _Stamp(self._instance(tt, key), rank, tuple(clock))
        takes = self._owned = self._takes.pop((tt.id, key), set())
        for a in args:
            if _trackable(a):
                buf = self._buffer(a)
                buf.reads[body.label] = body
                buf.ranks.add(rank)
                if id(a) in takes:
                    buf.writes[body.label] = body

    def on_body_end(self) -> None:
        self._body = None
        self._owned = set()

    # ------------------------------------------------------- send-side hooks

    def on_route(self, ctt: Any, cidx: int, key: Any, value: Any,
                 mode: str, provenance: Optional[str] = None) -> None:
        """One message routed toward ``(consumer terminal, key)``."""
        body = self._body
        prov = provenance or self._provenance()
        term = ctt.inputs[cidx]
        slot = (ctt.id, cidx, key)
        if not term.is_streaming:
            first = self._routed.get(slot)
            if first is not None:
                self.record(
                    "SAN001", f"{self._instance(ctt, key)}.{term.name}",
                    f"duplicate delivery: first sent by {first}, sent again "
                    f"by {prov}",
                )
            else:
                self._routed[slot] = prov
        tracked = _trackable(value)
        if tracked and body is not None:
            self._buffer(value).writes[body.label] = body
        moved = None
        if mode == "move" and tracked:
            vid = moved = id(value)
            earlier = self._moved.get(vid)
            # A body that took the value by move owns it and may move it
            # on, once; anyone else re-sending it uses it after the move.
            if earlier is not None and vid not in self._owned:
                self.record(
                    "SAN007", f"{self._instance(ctt, key)}.{term.name}",
                    f"value moved by {earlier[1]} was sent again by {prov}",
                )
            else:
                self._owned.discard(vid)
                self._moved[vid] = (value, prov)
        self._inbox.setdefault(slot, deque()).append(
            (prov, None if body is None else body.clock, moved))

    def on_cref_share(self, value: Any) -> None:
        """A value was shared by const-ref with no copy (runtime-owned)."""
        if not _trackable(value):
            return
        vid = id(value)
        if vid not in self._shared:
            # A share from a task body happens at its span's end.
            at = None if self._body is None else self.ex.backend.engine.now
            self._shared[vid] = (value, _fingerprint(value),
                                 self._provenance(), at)

    # ---------------------------------------------------- delivery-side hooks

    def on_deliver(self, tt: Any, idx: int, key: Any, value: Any,
                   rank: int) -> None:
        """A message reached an input terminal at its owner ``rank``."""
        term = tt.inputs[idx]
        slot = (tt.id, idx, key)
        inbox = self._inbox.get(slot)
        if inbox:
            msg = inbox[0]
            vid = id(value)
            if msg[2] != vid and vid in self._moved:
                msg = next((m for m in inbox if m[2] == vid), msg)
            inbox.remove(msg)
            prov, clock, moved = msg
            if not inbox:
                del self._inbox[slot]
        else:
            prov, clock, moved = "<external>", None, None
        if clock is not None:
            mine = self._clocks[rank]
            for r, c in enumerate(clock):
                if c > mine[r]:
                    mine[r] = c
        if (tt.id, key) in self._fired:
            self.record(
                "SAN002", f"{self._instance(tt, key)}.{term.name}",
                "message delivered to a task ID whose instance already "
                "fired (task-ID reuse)",
            )
        self._check_mutation(value, where=f"{self._instance(tt, key)}.{term.name}")
        if _trackable(value):
            vid = id(value)
            self._buffer(value).ranks.add(rank)
            if moved == vid:  # the sender's own object: ownership moved
                self._takes.setdefault((tt.id, key), set()).add(vid)
            prev = self._inflight.get(vid)
            count = prev[1] + 1 if prev else 1
            self._inflight[vid] = (value, count, prov)
            if term.is_streaming:
                self._streamed.setdefault((tt.id, key), []).append(value)

    def _check_mutation(self, value: Any, where: str) -> None:
        rec = self._shared.get(id(value))
        if rec is None or id(value) in self._mutation_reported:
            return
        obj, fp, sharer, shared_at = rec
        if obj is value and _fingerprint(value) != fp:
            self._mutation_reported.add(id(value))
            now = self.ex.backend.engine.now
            # The sharer's own post-send mutation is seen at its span's
            # end; strictly later means someone else wrote the buffer.
            if shared_at is not None and now > shared_at:
                self._late.append((sharer, where, shared_at, now))
            self.record(
                "SAN003", where,
                f"value shared via cref by {sharer} was mutated before "
                "its consumer observed it (write-after-share race)",
            )

    # ------------------------------------------------------------ task hooks

    def on_spawn(self, tt: Any, key: Any, args: Any) -> None:
        """A task instance fired (all inputs matched, or direct invoke)."""
        inst = (tt.id, key)
        if inst in self._fired:
            self.record(
                "SAN002", self._instance(tt, key),
                "task ID reused: an instance with this ID already fired",
            )
        self._fired.add(inst)
        for idx in range(tt.num_inputs):
            self._routed.pop((tt.id, idx, key), None)
        # A streaming argument is the reducer's fold: what the instance
        # consumes is every value delivered into that stream.
        inputs = tt.inputs
        for idx, a in enumerate(args):
            self._check_mutation(a, where=self._instance(tt, key))
            if not inputs[idx].is_streaming:
                self._consume(a)
        for v in self._streamed.pop(inst, ()):
            self._consume(v)

    def _consume(self, value: Any) -> None:
        """One delivered reference to ``value`` reached a firing task."""
        rec = self._inflight.get(id(value))
        if rec is not None:
            obj, count, prov = rec
            if obj is value:
                if count <= 1:
                    del self._inflight[id(value)]
                else:
                    self._inflight[id(value)] = (obj, count - 1, prov)

    def on_stream_control(self, tt: Any, term: Any, key: Any, kind: str) -> None:
        """set_argstream_size / finalize_argstream reached a terminal."""
        if (tt.id, key) in self._fired:
            self.record(
                "SAN004", f"{self._instance(tt, key)}.{term.name}",
                f"{kind} arrived after the task instance already fired "
                "(stream control must precede readiness)",
            )

    # -------------------------------------------------------- shutdown hooks

    def on_backend_drain(self, backend: Any) -> None:
        """Backend event queue drained; check transport-level leaks."""
        live = backend.rma.live_handles()
        if live:
            self.record(
                "SAN005", "rma",
                f"{live} splitmd source object(s) registered for RMA were "
                "never released at shutdown",
            )

    def on_shutdown(self) -> None:
        """Fence completed: report stranded instances, leaked data and
        races."""
        ex = self.ex
        for tt, key, inputs in sorted(
            ex.waiting(), key=lambda w: repr((w[0].id, w[1]))
        ):
            states = [(f"{t.name}={n}/{'?' if exp is None else exp}", n)
                      for t, n, exp in inputs]
            got = [state for state, n in states if n]
            missing = [state for state, n in states if not n]
            self.record(
                "SAN006", self._instance(tt, key),
                f"stranded at termination: received [{', '.join(got) or '-'}], "
                f"waiting on [{', '.join(missing) or '-'}]",
            )
        if self._inflight:
            leaks = sorted(
                f"{type(obj).__name__} delivered by {prov} (refcount {count})"
                for obj, count, prov in self._inflight.values()
            )
            self.record(
                "SAN005", ex.graph.name,
                f"data-copy leak: {len(self._inflight)} value(s) delivered "
                f"but never consumed by a task: {'; '.join(leaks)}",
            )
        for race in self._races():
            if race not in self._races_reported:
                self._races_reported.add(race)
                self.record(*race)

    def _races(self) -> List[Tuple[str, str, str]]:
        """``(rule, location, message)`` of every race so far, sorted."""
        out: Set[Tuple[str, str, str]] = set()
        for buf in self._buffers.values():
            where = f"data#{buf.number}"
            writes = sorted(buf.writes.values())
            for i, a in enumerate(writes):
                for b in writes[i + 1:]:
                    if _concurrent(a, b):
                        out.add(("RACE002", where,
                                 f"buffer {where} written by {a.label} (rank "
                                 f"{a.rank}) and {b.label} (rank {b.rank}) "
                                 "with no happens-before edge between the "
                                 "writes"))
            for w in writes:
                for r in sorted(buf.reads.values()):
                    if r.label != w.label and _concurrent(w, r):
                        out.add(("RACE001", where,
                                 f"buffer {where} written by {w.label} (rank "
                                 f"{w.rank}) and read by {r.label} (rank "
                                 f"{r.rank}) with no happens-before edge "
                                 "between the accesses"))
            if len(buf.ranks) > 1:
                out.add(("RACE003", where,
                         f"buffer {where} observed live on ranks "
                         f"{sorted(buf.ranks)}; the modelled ranks have "
                         "disjoint address spaces, so this aliasing must "
                         "become per-rank copies or messages"))
        for sharer, where, shared_at, seen_at in self._late:
            out.add(("RACE004", where,
                     f"cref-shared data owned by {sharer} (span ended at "
                     f"{shared_at:.6g}) was mutated by t={seen_at:.6g}, "
                     "outside the owning task's execution span"))
        return sorted(out)
