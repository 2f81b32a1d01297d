"""Exporters: Chrome trace-event JSON (Perfetto/chrome://tracing) and JSONL.

The Chrome format is the `trace-event` JSON Perfetto and chrome://tracing
both load: a ``{"traceEvents": [...]}`` object whose events carry
``ph`` (phase) codes -- ``X`` complete spans, ``i`` instants, ``C``
counters, ``M`` metadata (process/thread names), and ``s``/``t``/``f``
flow arrows linking the splitmd metadata phase to its RMA payload phase.
Timestamps are microseconds of virtual time; ``pid`` is the rank and
``tid`` the timeline id (worker index or a reserved lane, see
:mod:`repro.telemetry.events`).

:func:`validate_chrome_trace` is the schema check CI and the tests run
against every exported trace.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.events import (
    CounterEvent,
    EventBus,
    InstantEvent,
    SpanEvent,
    Telemetry,
    THREAD_NAMES,
)

_US = 1e6  # seconds -> microseconds

#: Version stamped into ``otherData.schemaVersion`` of every exported
#: trace; ``validate`` reports it in diagnostics.  Traces written before
#: this field existed read back as version 0.
TRACE_SCHEMA_VERSION = 1

#: phases of the trace-event format this exporter emits / the validator knows
_PHASES = {"X", "i", "I", "C", "M", "s", "t", "f", "B", "E"}


def _bus_of(source: Union[Telemetry, EventBus]) -> EventBus:
    return source.bus if isinstance(source, Telemetry) else source


# ----------------------------------------------------------------- chrome


def to_chrome_events(source: Union[Telemetry, EventBus]) -> List[Dict[str, Any]]:
    """Flatten the bus into a list of Chrome trace events."""
    bus = _bus_of(source)
    events: List[Dict[str, Any]] = []

    # Process/thread naming metadata so Perfetto shows "rank N"/"am-server".
    seen_tids = set()
    for ev in bus.events():
        seen_tids.add((ev.rank, getattr(ev, "tid", 0)))
    for rank in sorted({r for r, _ in seen_tids}):
        events.append({
            "name": "process_name", "ph": "M", "pid": rank, "tid": 0,
            "args": {"name": f"rank {rank}"},
        })
    for rank, tid in sorted(seen_tids):
        label = THREAD_NAMES.get(tid, f"worker {tid}")
        events.append({
            "name": "thread_name", "ph": "M", "pid": rank, "tid": tid,
            "args": {"name": label},
        })

    flows: Dict[int, List[SpanEvent]] = {}
    for ev in bus.events():
        if isinstance(ev, SpanEvent):
            events.append({
                "name": ev.name,
                "cat": ev.cat or "span",
                "ph": "X",
                "pid": ev.rank,
                "tid": ev.tid,
                "ts": ev.start * _US,
                "dur": max(ev.duration * _US, 0.001),
                "args": dict(ev.args),
            })
            if ev.flow is not None:
                flows.setdefault(ev.flow, []).append(ev)
        elif isinstance(ev, InstantEvent):
            events.append({
                "name": ev.name,
                "cat": ev.cat or "instant",
                "ph": "i",
                "s": "t",
                "pid": ev.rank,
                "tid": ev.tid,
                "ts": ev.ts * _US,
                "args": dict(ev.args),
            })
        elif isinstance(ev, CounterEvent):
            events.append({
                "name": ev.name,
                "ph": "C",
                "pid": ev.rank,
                "tid": 0,
                "ts": ev.ts * _US,
                "args": dict(ev.values),
            })

    # Flow arrows: one s -> t... -> f chain per flow id, anchored at the
    # start of each member span.
    for flow_id, members in sorted(flows.items()):
        if len(members) < 2:
            continue
        members.sort(key=lambda s: s.start)
        for i, span in enumerate(members):
            ph = "s" if i == 0 else ("f" if i == len(members) - 1 else "t")
            ev: Dict[str, Any] = {
                "name": "flow", "cat": span.cat or "flow", "ph": ph,
                "id": flow_id, "pid": span.rank, "tid": span.tid,
                "ts": span.start * _US,
            }
            if ph == "f":
                ev["bp"] = "e"
            events.append(ev)
    return events


def to_chrome_trace(source: Union[Telemetry, EventBus]) -> Dict[str, Any]:
    """The full Chrome trace object, ready to ``json.dump``.

    Per-rank ring-buffer eviction counts ride along in
    ``otherData.dropped`` so downstream consumers (``validate``, the HTML
    report) can tell a complete recording from a truncated one.
    """
    bus = _bus_of(source)
    return {
        "traceEvents": to_chrome_events(bus),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry",
                      "schemaVersion": TRACE_SCHEMA_VERSION,
                      "dropped": list(bus.dropped)},
    }


def write_chrome_trace(path: str, source: Union[Telemetry, EventBus]) -> None:
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(source), fh)


def validate_chrome_trace(data: Any) -> List[str]:
    """Schema-check a Chrome trace object; returns problems (empty = ok).

    Accepts the object form (``{"traceEvents": [...]}``) or the bare
    event-array form, the two layouts Perfetto's JSON importer takes.
    """
    problems: List[str] = []
    if isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object has no 'traceEvents' list"]
    elif isinstance(data, list):
        events = data
    else:
        return [f"trace must be an object or array, got {type(data).__name__}"]

    for i, ev in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing/empty 'name'")
        ph = ev.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where} ({name}): unknown phase {ph!r}")
            continue
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                problems.append(f"{where} ({name}): '{field}' must be an int")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where} ({name}): 'ts' must be a number")
            elif ts < 0:
                problems.append(f"{where} ({name}): negative ts {ts}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where} ({name}): 'X' needs dur >= 0")
        if ph in ("s", "t", "f") and not isinstance(ev.get("id"), int):
            problems.append(f"{where} ({name}): flow event needs an 'id'")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where} ({name}): 'C' args must be numeric")
        if ph == "i" and ev.get("s") not in (None, "t", "p", "g"):
            problems.append(f"{where} ({name}): bad instant scope {ev.get('s')!r}")
    return problems


# ------------------------------------------------------------------ jsonl


def event_to_json(ev: Any) -> Dict[str, Any]:
    if isinstance(ev, SpanEvent):
        out: Dict[str, Any] = {
            "type": "span", "name": ev.name, "cat": ev.cat, "rank": ev.rank,
            "tid": ev.tid, "start": ev.start, "end": ev.end, "args": ev.args,
        }
        if ev.flow is not None:
            out["flow"] = ev.flow
        return out
    if isinstance(ev, InstantEvent):
        return {"type": "instant", "name": ev.name, "cat": ev.cat,
                "rank": ev.rank, "tid": ev.tid, "ts": ev.ts, "args": ev.args}
    if isinstance(ev, CounterEvent):
        return {"type": "counter", "name": ev.name, "rank": ev.rank,
                "ts": ev.ts, "values": ev.values}
    raise TypeError(f"unknown event type {type(ev).__name__}")


def event_from_json(obj: Dict[str, Any]) -> Any:
    kind = obj.get("type")
    if kind == "span":
        return SpanEvent(obj["name"], obj.get("cat", ""), obj["rank"],
                         obj.get("tid", 0), obj["start"], obj["end"],
                         obj.get("args", {}), obj.get("flow"))
    if kind == "instant":
        return InstantEvent(obj["name"], obj.get("cat", ""), obj["rank"],
                            obj.get("tid", 0), obj["ts"], obj.get("args", {}))
    if kind == "counter":
        return CounterEvent(obj["name"], obj["rank"], obj["ts"],
                            obj.get("values", {}))
    raise ValueError(f"unknown event record type {kind!r}")


def write_jsonl(path: str, source: Union[Telemetry, EventBus]) -> int:
    """One JSON object per line, time-sorted; returns the event count."""
    bus = _bus_of(source)
    n = 0
    with open(path, "w") as fh:
        for ev in bus.events():
            fh.write(json.dumps(event_to_json(ev)))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path: str) -> EventBus:
    """Re-ingest a JSONL event log into an (unbounded) EventBus."""
    bus = EventBus(nranks=1, capacity=None)
    with open(path) as fh:
        bus.extend(event_from_json(json.loads(line))
                   for line in fh if line.strip())
    return bus


# --------------------------------------------------------------- counters


def counters_payload(
    telemetry: Telemetry, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The counters-JSON object the bench harness writes next to figures."""
    return {
        "schema": "repro.telemetry/counters-v1",
        "meta": dict(meta or {}),
        "counters": telemetry.metrics.as_dict(),
    }


def write_counters_json(
    path: str, telemetry: Telemetry, meta: Optional[Dict[str, Any]] = None
) -> None:
    with open(path, "w") as fh:
        json.dump(counters_payload(telemetry, meta), fh, indent=1, sort_keys=True)


def read_counters_json(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "counters" in data:
        return data
    raise ValueError(f"{path}: not a repro.telemetry counters JSON")
