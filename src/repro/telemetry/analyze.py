"""Post-mortem analysis over the recorded event stream.

Works on any event source (a live :class:`~repro.telemetry.events.Telemetry`,
its bus, or a bus re-ingested from JSONL):

- :func:`critical_path` -- longest chain of task executions through the
  recorded task/dependency DAG (``dep`` instants emitted at routing time
  link producer task instances to consumer instances by label).
- :func:`summary_by_template` -- count/total/mean/max per template.
- :func:`idle_breakdown` -- per-rank busy vs. comm vs. idle time.
- :func:`protocol_bytes` -- bytes moved per transport channel.
- :func:`report` -- all of the above as the text report the CLI prints.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.telemetry.events import EventBus, SpanEvent, Telemetry


def _bus_of(source: Union[Telemetry, EventBus]) -> EventBus:
    return source.bus if isinstance(source, Telemetry) else source


# ---------------------------------------------------------------- the DAG


@dataclass
class TaskNode:
    """One executed task instance in the recorded DAG."""

    label: str          # "TEMPLATE[key-repr]"
    template: str
    key: str            # repr of the task id
    rank: int
    tid: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def task_nodes(source: Union[Telemetry, EventBus]) -> Dict[str, TaskNode]:
    """Task spans keyed by instance label (``TEMPLATE[key]``)."""
    out: Dict[str, TaskNode] = {}
    for ev in _bus_of(source).spans(cat="task"):
        template = ev.args.get("template", ev.name)
        key = ev.args.get("key", "None")
        label = f"{template}[{key}]"
        out[label] = TaskNode(label, template, key, ev.rank, ev.tid,
                              ev.start, ev.end)
    return out


def dep_edges(source: Union[Telemetry, EventBus]) -> List[Tuple[str, str]]:
    """(producer label, consumer label) pairs from ``dep`` instants."""
    out = []
    for ev in _bus_of(source).instants(cat="dep"):
        src, dst = ev.args.get("src"), ev.args.get("dst")
        if src and dst:
            out.append((src, dst))
    return out


@dataclass
class CriticalPath:
    """The longest task chain of one recorded run."""

    nodes: List[TaskNode] = field(default_factory=list)
    compute_time: float = 0.0   # sum of task durations on the path
    makespan: float = 0.0       # last event end in the trace

    @property
    def length(self) -> int:
        return len(self.nodes)

    @property
    def fraction(self) -> float:
        """compute_time / makespan -- 1.0 means the path *is* the bound."""
        return self.compute_time / self.makespan if self.makespan > 0 else 0.0

    def labels(self) -> List[str]:
        return [n.label for n in self.nodes]

    def report(self) -> str:
        lines = [
            f"critical path: {self.length} tasks, "
            f"{self.compute_time * 1e3:.3f} ms compute on path, "
            f"makespan {self.makespan * 1e3:.3f} ms "
            f"({self.fraction * 100:.1f}% of makespan)"
        ]
        for n in self.nodes:
            lines.append(
                f"  {n.label:<28} rank {n.rank:<3} "
                f"[{n.start * 1e6:10.2f} .. {n.end * 1e6:10.2f}] us  "
                f"({n.duration * 1e6:8.2f} us)"
            )
        return "\n".join(lines)


def critical_path(source: Union[Telemetry, EventBus]) -> CriticalPath:
    """Longest-duration chain through the recorded task/dependency DAG.

    Dynamic program over tasks in start-time order (a producer always
    finishes -- and therefore starts -- before its consumer fires, so
    start order is a topological order of the instance DAG; edges that
    would violate it are dropped defensively).
    """
    bus = _bus_of(source)
    nodes = task_nodes(bus)
    if not nodes:
        return CriticalPath(makespan=bus.makespan())

    preds: Dict[str, List[str]] = defaultdict(list)
    for src, dst in dep_edges(bus):
        if src in nodes and dst in nodes:
            if nodes[src].start <= nodes[dst].start:
                preds[dst].append(src)

    order = sorted(nodes.values(), key=lambda n: (n.start, n.end, n.label))
    dist: Dict[str, float] = {}
    parent: Dict[str, Optional[str]] = {}
    for node in order:
        best, best_pred = 0.0, None
        for p in preds.get(node.label, ()):
            d = dist.get(p, 0.0)
            if d > best:
                best, best_pred = d, p
        dist[node.label] = best + node.duration
        parent[node.label] = best_pred

    tail = max(dist, key=lambda label: dist[label])
    chain: List[TaskNode] = []
    cur: Optional[str] = tail
    while cur is not None:
        chain.append(nodes[cur])
        cur = parent[cur]
    chain.reverse()
    return CriticalPath(chain, dist[tail], bus.makespan())


# -------------------------------------------------------------- summaries


@dataclass
class TemplateSummary:
    """Per-template execution stats of one run (durations need spans)."""

    template: str
    count: int = 0
    total: float = 0.0
    mean: float = 0.0
    max: float = 0.0


def summary_by_template(source: Union[Telemetry, EventBus]) -> List[TemplateSummary]:
    acc: Dict[str, List[float]] = defaultdict(list)
    for node in task_nodes(source).values():
        acc[node.template].append(node.duration)
    out = [
        TemplateSummary(name, len(ds), sum(ds), sum(ds) / len(ds), max(ds))
        for name, ds in acc.items()
    ]
    return sorted(out, key=lambda s: -s.total)


@dataclass
class RankBreakdown:
    """Where one rank's time went across the makespan."""

    rank: int
    workers: int = 1
    busy: float = 0.0    # worker-seconds executing tasks
    comm: float = 0.0    # seconds of AM-server / RMA / protocol activity
    idle: float = 0.0    # workers * makespan - busy
    utilization: float = 0.0


def idle_breakdown(source: Union[Telemetry, EventBus]) -> List[RankBreakdown]:
    """Per-rank busy/comm/idle split.

    A rank's worker count is kept by a :class:`Telemetry` bound to a
    backend.  A bare bus -- one read back from a file -- has no worker
    count, so it is inferred from the highest task-span timeline id used;
    a rank that never ran all of its workers at once then shows too few
    workers and too high a utilization.
    """
    bus = _bus_of(source)
    lanes = source.lanes if isinstance(source, Telemetry) else None
    makespan = bus.makespan()
    busy: Dict[int, float] = defaultdict(float)
    comm: Dict[int, float] = defaultdict(float)
    workers: Dict[int, int] = defaultdict(int)
    for ev in bus.spans():
        if not isinstance(ev, SpanEvent):
            continue
        if ev.cat == "task":
            busy[ev.rank] += ev.duration
            workers[ev.rank] = max(workers[ev.rank], ev.tid + 1)
        elif ev.cat in ("comm", "proto"):
            comm[ev.rank] += ev.duration
    out = []
    for rank in sorted(set(busy) | set(comm)):
        if lanes is not None and rank < len(lanes):
            w = lanes[rank]
        else:
            w = max(workers.get(rank, 1), 1)
        avail = w * makespan
        b = busy.get(rank, 0.0)
        out.append(RankBreakdown(
            rank=rank, workers=w, busy=b, comm=comm.get(rank, 0.0),
            idle=max(avail - b, 0.0),
            utilization=b / avail if avail > 0 else 0.0,
        ))
    return out


def protocol_bytes(source: Union[Telemetry, EventBus]) -> Dict[str, int]:
    """Bytes moved per transport channel, from the recorded comm/proto
    spans (``am:*``, ``rma:*``, ``splitmd:meta:*``, ``splitmd:rma:*``)."""
    out: Dict[str, int] = defaultdict(int)
    for ev in _bus_of(source).spans():
        if ev.cat not in ("comm", "proto"):
            continue
        parts = ev.name.split(":")
        channel = ":".join(parts[:2]) if parts[0] == "splitmd" else parts[0]
        out[channel] += int(ev.args.get("nbytes", 0))
    return dict(out)


def drop_warning(source: Union[Telemetry, EventBus]) -> Optional[str]:
    """The one-line ``WARNING`` for a recording whose ring buffers evicted
    events, or None for a complete one."""
    bus = _bus_of(source)
    dropped = sum(bus.dropped)
    if not dropped:
        return None
    per_rank = ", ".join(f"rank {r}: {n}" for r, n in
                         enumerate(bus.dropped) if n)
    return (f"WARNING: {dropped} event(s) evicted from the ring buffers "
            f"({per_rank}).")


def report(source: Union[Telemetry, EventBus]) -> str:
    """The human-readable per-run report the CLI prints."""
    bus = _bus_of(source)
    lines = [f"events: {len(bus)} "
             f"(dropped: {sum(bus.dropped)}), "
             f"makespan: {bus.makespan() * 1e3:.3f} ms"]
    warning = drop_warning(bus)
    if warning is not None:
        lines += [
            "",
            warning,
            "         Analysis below runs on a truncated window -- idle and",
            "         critical-path numbers are skewed. Re-record with a",
            "         larger --capacity (or capacity=None).",
        ]
    rows = summary_by_template(bus)
    if rows:
        lines.append("")
        lines.append(f"{'template':<16}{'count':>8}{'total ms':>12}"
                     f"{'mean us':>10}{'max us':>10}")
        for s in rows:
            lines.append(f"{s.template:<16}{s.count:>8}{s.total * 1e3:>12.3f}"
                         f"{s.mean * 1e6:>10.2f}{s.max * 1e6:>10.2f}")
    ranks = idle_breakdown(source)
    if ranks:
        lines.append("")
        lines.append(f"{'rank':<6}{'workers':>8}{'busy ms':>10}{'comm ms':>10}"
                     f"{'idle ms':>10}{'util %':>8}")
        for r in ranks:
            lines.append(f"{r.rank:<6}{r.workers:>8}{r.busy * 1e3:>10.3f}"
                         f"{r.comm * 1e3:>10.3f}{r.idle * 1e3:>10.3f}"
                         f"{r.utilization * 100:>8.1f}")
    split = protocol_bytes(bus)
    if split:
        lines.append("")
        lines.append(f"{'channel':<16}{'bytes':>14}{'share %':>8}")
        total = sum(split.values()) or 1
        for chan, n in sorted(split.items(), key=lambda kv: -kv[1]):
            lines.append(f"{chan:<16}{n:>14}{n / total * 100:>8.1f}")
    lines += ["", critical_path(bus).report()]
    san = bus.instants(cat="san")
    if san:
        lines.append("")
        lines.append(f"sanitizer findings on timeline: {len(san)}")
        for ev in san[:10]:
            lines.append(f"  {ev.name} @{ev.ts * 1e6:.2f}us "
                         f"{ev.args.get('location', '')}")
    return "\n".join(lines)

