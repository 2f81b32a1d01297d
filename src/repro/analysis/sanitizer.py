"""TTG-San: an opt-in runtime sanitizer for executing task graphs.

The static linter (:mod:`repro.analysis.lint`) catches wiring defects; a
second class of defects only exists at runtime -- double-sends, task-ID
reuse, mutation of const-ref-shared data, stream control arriving after
the task fired, and data stranded or leaked at termination.  The
sanitizer observes every delivery, spawn, and stream-control event (hooks
threaded through :mod:`repro.core.graph`, :mod:`repro.core.messaging`,
and :mod:`repro.runtime.base`) and reports each fault with precise
task/key provenance.

Enable it per execution::

    ex = graph.executable(backend, sanitize=True)   # collect + warn
    ex = Executable.make(graph, backend, strict=True)  # raise on faults

In strict mode each fault raises :class:`~repro.core.exceptions.SanitizerError`
at the detection point; otherwise findings accumulate on
``ex.sanitizer.findings`` and are emitted as warnings.

Tracking is identity-based: only *data-carrying* values (numpy arrays and
clone()-able objects such as :class:`~repro.linalg.tile.MatrixTile`) are
entered into the cref/move/lifetime ledgers, and the ledgers hold strong
references so Python cannot recycle an id mid-run.  Small immutable
values (ints, floats, strings, None) are never tracked.
"""

from __future__ import annotations

import hashlib
import warnings
from typing import Any, Dict, List, Optional, Set, Tuple

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

    On the sharded engine one fault can be observed once per rank shard
    (e.g. a cref mutation seen by consumers on two shards), so raw
    finding lists differ between engines only in multiplicity and
    arrival order.  Canonical form -- first occurrence per
    ``(rule, location, message)`` triple, sorted by that triple -- is
    what the engine-parity suite compares.
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
    """Merge findings from several shards/sources into canonical form."""
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
        # id(value) -> (value, fingerprint at share time, sharer provenance).
        self._shared: Dict[int, Tuple[Any, str, str]] = {}
        # id(value) -> (value, provenance of the move).
        self._moved: Dict[int, Tuple[Any, str]] = {}
        # id(value) -> (value, refcount, provenance): delivered, not consumed.
        self._inflight: Dict[int, Tuple[Any, int, str]] = {}
        self._mutation_reported: Set[int] = set()

    # -------------------------------------------------------------- report

    def record(self, rule_id: str, location: str, message: str,
               **telargs: Any) -> Finding:
        """Report one fault.  Extra keyword args ride on the telemetry
        instant only (e.g. SAN003's ``sharer=`` label, which the race
        detector uses for RACE004); findings themselves stay
        ``(rule, location, message)`` so engine-parity comparison is
        unaffected."""
        f = Finding(get_rule(rule_id), message, location=location)
        self.findings.append(f)
        tel = getattr(self.ex.backend, "telemetry", None)
        if tel is not None:
            if tel.bus.recording:
                from repro.telemetry.events import TID_SAN

                tel.bus.instant(rule_id, 0, TID_SAN, cat="san",
                                location=location, message=message, **telargs)
            tel.metrics.counter("san_findings", rule=rule_id).inc()
        if self.strict:
            raise SanitizerError(str(f), rule=rule_id)
        warnings.warn(f"TTG-San: {f}", RuntimeWarning, stacklevel=3)
        return f

    def findings_for(self, rule_id: str) -> List[Finding]:
        return [f for f in self.findings if f.rule.id == rule_id]

    @staticmethod
    def _provenance() -> str:
        """Identity of the task currently executing (sender side)."""
        from repro.core.messaging import current_task_label

        return current_task_label()

    @staticmethod
    def _instance(tt: Any, key: Any) -> str:
        return f"{tt.name}[{key!r}]"

    # ------------------------------------------------------- send-side hooks

    def on_route(self, ctt: Any, cidx: int, key: Any, value: Any,
                 mode: str, provenance: Optional[str] = None) -> None:
        """One message routed toward ``(consumer terminal, key)``."""
        prov = provenance or self._provenance()
        term = ctt.inputs[cidx]
        if not term.is_streaming:
            slot = (ctt.id, cidx, key)
            first = self._routed.get(slot)
            if first is not None:
                self.record(
                    "SAN001", f"{self._instance(ctt, key)}.{term.name}",
                    f"duplicate delivery: first sent by {first}, sent again "
                    f"by {prov}",
                )
            else:
                self._routed[slot] = prov
        if mode == "move" and _trackable(value):
            vid = id(value)
            earlier = self._moved.get(vid)
            if earlier is not None:
                self.record(
                    "SAN007", f"{self._instance(ctt, key)}.{term.name}",
                    f"value moved by {earlier[1]} was sent again by {prov}",
                )
            else:
                self._moved[vid] = (value, prov)

    def on_cref_share(self, value: Any) -> None:
        """A value was shared by const-ref with no copy (runtime-owned)."""
        if not _trackable(value):
            return
        vid = id(value)
        if vid not in self._shared:
            self._shared[vid] = (value, _fingerprint(value), self._provenance())

    # ---------------------------------------------------- delivery-side hooks

    def on_deliver(self, tt: Any, idx: int, key: Any, value: Any) -> None:
        """A message reached an input terminal at its owner rank."""
        term = tt.inputs[idx]
        if (tt.id, key) in self._fired:
            self.record(
                "SAN002", f"{self._instance(tt, key)}.{term.name}",
                "message delivered to a task ID whose instance already "
                "fired (task-ID reuse)",
            )
        self._check_mutation(value, where=f"{self._instance(tt, key)}.{term.name}")
        if _trackable(value):
            vid = id(value)
            prev = self._inflight.get(vid)
            count = prev[1] + 1 if prev else 1
            # Provenance: the sender recorded at routing time (delivery
            # itself happens between tasks, when no body is executing).
            prov = self._routed.get((tt.id, idx, key), "<external>")
            self._inflight[vid] = (value, count, prov)

    def _check_mutation(self, value: Any, where: str) -> None:
        rec = self._shared.get(id(value))
        if rec is None or id(value) in self._mutation_reported:
            return
        obj, fp, sharer = rec
        if obj is value and _fingerprint(value) != fp:
            self._mutation_reported.add(id(value))
            self.record(
                "SAN003", where,
                f"value shared via cref by {sharer} was mutated before "
                "its consumer observed it (write-after-share race)",
                sharer=sharer,
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
        for a in args:
            self._check_mutation(a, where=self._instance(tt, key))
            rec = self._inflight.get(id(a))
            if rec is not None:
                obj, count, prov = rec
                if obj is a:
                    if count <= 1:
                        del self._inflight[id(a)]
                    else:
                        self._inflight[id(a)] = (obj, count - 1, prov)

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
        """Fence completed: report stranded instances and leaked data."""
        ex = self.ex
        by_id = {tt.id: tt for tt in ex.graph.tts}
        for (ttid, key), p in sorted(
            ex._pending.items(), key=lambda kv: repr(kv[0])
        ):
            tt = by_id[ttid]
            got, missing = [], []
            for i, t in enumerate(tt.inputs):
                exp = p.expected[i]
                state = f"{t.name}={p.counts[i]}/{'?' if exp is None else exp}"
                (got if p.counts[i] else missing).append(state)
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
