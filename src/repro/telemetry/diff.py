"""Trace differ: align two recorded runs, rank what moved, say why.

The pinned watchdog (``python -m repro.bench --check-regressions``)
can tell *that* a record moved; this module tells *where*.  Two runs --
each a recorded trace (JSONL event log / live bus) or a stored
``BENCH_*.json`` record -- are aligned by template, task key, protocol
channel, and rank, and the movement is attributed:

- per-template span-total deltas, ranked by absolute contribution;
- ``bytes_by_protocol.*`` channel shifts (a splitmd->eager fallback shows
  up here long before the makespan notices);
- per-rank busy/idle divergence (which shard absorbed the slowdown);
- critical-path churn: tasks that entered or left the path, and per-node
  duration deltas along the common stretch;
- the record counter delta table (:func:`diff_counters`).

Rendered as text (:meth:`RunDiff.format`) or JSON (:meth:`RunDiff.as_dict`).
The what-if profiler (:mod:`repro.telemetry.whatif`) turns the ranking
into causal statements by exact counterfactual replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.telemetry import analyze
from repro.telemetry.analyze import RankBreakdown, TemplateSummary
from repro.telemetry.events import EventBus, Telemetry

# ------------------------------------------------------------ counter core


def diff_counters(
    a: Dict[str, float], b: Dict[str, float]
) -> List[Tuple[str, float, float, float]]:
    """Rows of ``(counter, value_a, value_b, delta)`` between two runs'
    record counters, a counter missing on one side reading 0."""
    return [(key, a.get(key, 0.0), b.get(key, 0.0),
             b.get(key, 0.0) - a.get(key, 0.0))
            for key in sorted(set(a) | set(b))]


# -------------------------------------------------------------- run views


@dataclass
class RunView:
    """One run, normalized for diffing regardless of its source form.

    ``has_spans`` distinguishes a full trace (span durations, critical
    path, rank budgets available) from a record view (task counts, byte
    totals and counters only).
    """

    label: str
    makespan: float = 0.0
    templates: Dict[str, TemplateSummary] = field(default_factory=dict)
    bytes_by_protocol: Dict[str, float] = field(default_factory=dict)
    ranks: Dict[int, RankBreakdown] = field(default_factory=dict)
    critical_path: List[Tuple[str, float]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    has_spans: bool = False

    @classmethod
    def from_bus(cls, source: Union[Telemetry, EventBus],
                 label: str = "trace") -> "RunView":
        """Full view from a recorded event stream (live or re-ingested)."""
        bus = source.bus if isinstance(source, Telemetry) else source
        view = cls(label=label, makespan=bus.makespan(), has_spans=True)
        view.templates = {s.template: s
                          for s in analyze.summary_by_template(bus)}
        view.ranks = {r.rank: r for r in analyze.idle_breakdown(source)}
        view.bytes_by_protocol = {
            k: float(v) for k, v in analyze.protocol_bytes(bus).items()}
        cp = analyze.critical_path(bus)
        view.critical_path = [(n.label, n.duration) for n in cp.nodes]
        return view

    @classmethod
    def from_record(cls, record: Any, label: Optional[str] = None) -> "RunView":
        """View from a stored :class:`repro.bench.history.BenchRecord`
        (counts/bytes/counters; no span durations)."""
        view = cls(
            label=label or f"{record.app} seed {record.seed}"
                           f" @{record.git_sha or '?'}",
            makespan=float(record.makespan),
        )
        for name, count in record.tasks_by_template.items():
            view.templates[name] = TemplateSummary(name, count=int(count))
        view.bytes_by_protocol = {
            k: float(v) for k, v in record.bytes_by_protocol.items()
        }
        view.counters = {k: float(v) for k, v in record.counters.items()}
        return view


# ------------------------------------------------------------- the differ


@dataclass
class TemplateDelta:
    template: str
    count_a: int
    count_b: int
    total_a: float
    total_b: float

    @property
    def delta(self) -> float:
        return self.total_b - self.total_a

    @property
    def count_delta(self) -> int:
        return self.count_b - self.count_a


@dataclass
class RunDiff:
    """The full alignment of two runs, ready to rank/render/serialize."""

    a_label: str
    b_label: str
    makespan_a: float = 0.0
    makespan_b: float = 0.0
    templates: List[TemplateDelta] = field(default_factory=list)
    protocols: List[Tuple[str, float, float, float]] = field(default_factory=list)
    ranks: List[Tuple[int, float, float, float]] = field(default_factory=list)
    counters: List[Tuple[str, float, float, float]] = field(default_factory=list)
    cp_entered: List[str] = field(default_factory=list)
    cp_left: List[str] = field(default_factory=list)
    cp_common: List[Tuple[str, float, float, float]] = field(default_factory=list)
    has_spans: bool = False

    @property
    def makespan_delta(self) -> float:
        return self.makespan_b - self.makespan_a

    def ranked_templates(self) -> List[TemplateDelta]:
        """Templates by absolute span-total movement (count movement when
        the views carry no durations), largest first."""
        if self.has_spans:
            return sorted(self.templates, key=lambda t: -abs(t.delta))
        return sorted(self.templates, key=lambda t: -abs(t.count_delta))

    def attribution(self) -> List[Tuple[str, float]]:
        """(template, share-of-makespan-delta) for templates whose span
        total moved in the same direction as the makespan."""
        d = self.makespan_delta
        if not self.has_spans or d == 0.0:
            return []
        rows = [(t.template, t.delta / d) for t in self.ranked_templates()
                if t.delta * d > 0.0]
        return rows

    def as_dict(self) -> Dict[str, Any]:
        """The attribution-report JSON schema (see docs/observability.md)."""
        return {
            "schema": "repro.telemetry/diff-v1",
            "a": self.a_label,
            "b": self.b_label,
            "makespan": {"a": self.makespan_a, "b": self.makespan_b,
                         "delta": self.makespan_delta},
            "templates": [
                {"template": t.template, "count_a": t.count_a,
                 "count_b": t.count_b, "total_a": t.total_a,
                 "total_b": t.total_b, "delta": t.delta}
                for t in self.ranked_templates()
            ],
            "attribution": [
                {"template": name, "share": share}
                for name, share in self.attribution()
            ],
            "bytes_by_protocol": [
                {"channel": c, "a": va, "b": vb, "delta": dv}
                for c, va, vb, dv in self.protocols
            ],
            "ranks": [
                {"rank": r, "idle_a": ia, "idle_b": ib, "delta_idle": dv}
                for r, ia, ib, dv in self.ranks
            ],
            "critical_path": {
                "entered": list(self.cp_entered),
                "left": list(self.cp_left),
                "common": [
                    {"label": lab, "a": va, "b": vb, "delta": dv}
                    for lab, va, vb, dv in self.cp_common
                ],
            },
            "counters": [
                {"counter": k, "a": va, "b": vb, "delta": dv}
                for k, va, vb, dv in self.counters
            ],
        }

    def format(self, only_changed: bool = True) -> str:
        """The human-readable attribution report."""
        lines = [f"run diff: A = {self.a_label}   B = {self.b_label}"]
        d = self.makespan_delta
        pct = 100.0 * d / self.makespan_a if self.makespan_a else 0.0
        lines.append(
            f"makespan: {self.makespan_a * 1e3:.3f} ms -> "
            f"{self.makespan_b * 1e3:.3f} ms ({d * 1e3:+.3f} ms, {pct:+.1f}%)"
        )
        ranked = self.ranked_templates()
        if ranked:
            lines.append("")
            if self.has_spans:
                lines.append(f"{'template':<16}{'count A/B':>12}"
                             f"{'total A ms':>12}{'total B ms':>12}{'delta ms':>12}")
                for t in ranked:
                    if only_changed and t.delta == 0.0 and t.count_delta == 0:
                        continue
                    lines.append(
                        f"{t.template:<16}{t.count_a:>5}/{t.count_b:<6}"
                        f"{t.total_a * 1e3:>12.3f}{t.total_b * 1e3:>12.3f}"
                        f"{t.delta * 1e3:>+12.3f}")
            else:
                lines.append(f"{'template':<16}{'count A':>10}{'count B':>10}"
                             f"{'delta':>8}")
                for t in ranked:
                    if only_changed and t.count_delta == 0:
                        continue
                    lines.append(f"{t.template:<16}{t.count_a:>10}"
                                 f"{t.count_b:>10}{t.count_delta:>+8}")
        shares = self.attribution()
        if shares:
            lines.append("")
            lines.append("attribution (share of makespan delta, by span total):")
            for name, share in shares[:8]:
                lines.append(f"  {name:<16}{share * 100:>7.1f}%")
        if self.protocols:
            lines.append("")
            lines.append(f"{'protocol bytes':<20}{'A':>14}{'B':>14}{'delta':>14}")
            for c, va, vb, dv in self.protocols:
                if only_changed and dv == 0.0:
                    continue
                lines.append(f"{c:<20}{va:>14.6g}{vb:>14.6g}{dv:>+14.6g}")
        if self.ranks:
            lines.append("")
            lines.append(f"{'rank':<6}{'idle A ms':>12}{'idle B ms':>12}"
                         f"{'delta ms':>12}")
            for r, ia, ib, dv in self.ranks:
                if only_changed and dv == 0.0:
                    continue
                lines.append(f"{r:<6}{ia * 1e3:>12.3f}{ib * 1e3:>12.3f}"
                             f"{dv * 1e3:>+12.3f}")
        if self.cp_entered or self.cp_left or self.cp_common:
            lines.append("")
            lines.append(
                f"critical path: {len(self.cp_entered)} task(s) entered, "
                f"{len(self.cp_left)} left, {len(self.cp_common)} in common")
            for lab in self.cp_entered[:6]:
                lines.append(f"  + {lab}")
            for lab in self.cp_left[:6]:
                lines.append(f"  - {lab}")
            moved = [(lab, va, vb, dv) for lab, va, vb, dv in self.cp_common
                     if dv != 0.0]
            moved.sort(key=lambda row: -abs(row[3]))
            for lab, va, vb, dv in moved[:6]:
                lines.append(f"  ~ {lab:<28}{va * 1e6:>10.2f} -> "
                             f"{vb * 1e6:>10.2f} us ({dv * 1e6:+.2f})")
        if self.counters:
            changed = [(k, va, vb, dv) for k, va, vb, dv in self.counters
                       if not only_changed or dv != 0.0]
            if changed:
                lines.append("")
                lines.append(f"{'counter':<52}{'A':>14}{'B':>14}{'delta':>14}")
                for k, va, vb, dv in changed:
                    lines.append(f"{k:<52}{va:>14.6g}{vb:>14.6g}{dv:>+14.6g}")
        return "\n".join(lines)


def diff_runs(a: RunView, b: RunView) -> RunDiff:
    """Align two run views and produce the attribution diff."""
    out = RunDiff(
        a_label=a.label, b_label=b.label,
        makespan_a=a.makespan, makespan_b=b.makespan,
        has_spans=a.has_spans and b.has_spans,
    )
    for name in sorted(set(a.templates) | set(b.templates)):
        ta = a.templates.get(name) or TemplateSummary(name)
        tb = b.templates.get(name) or TemplateSummary(name)
        out.templates.append(TemplateDelta(
            name, ta.count, tb.count, ta.total, tb.total))
    for chan in sorted(set(a.bytes_by_protocol) | set(b.bytes_by_protocol)):
        va = a.bytes_by_protocol.get(chan, 0.0)
        vb = b.bytes_by_protocol.get(chan, 0.0)
        out.protocols.append((chan, va, vb, vb - va))
    for rank in sorted(set(a.ranks) | set(b.ranks)):
        ra = a.ranks.get(rank) or RankBreakdown(rank)
        rb = b.ranks.get(rank) or RankBreakdown(rank)
        out.ranks.append((rank, ra.idle, rb.idle, rb.idle - ra.idle))
    out.counters = diff_counters(a.counters, b.counters)
    cpa = dict(a.critical_path)
    cpb = dict(b.critical_path)
    out.cp_entered = [lab for lab, _ in b.critical_path if lab not in cpa]
    out.cp_left = [lab for lab, _ in a.critical_path if lab not in cpb]
    out.cp_common = [
        (lab, cpa[lab], cpb[lab], cpb[lab] - cpa[lab])
        for lab, _ in a.critical_path if lab in cpb
    ]
    return out


# --------------------------------------------------------------- loaders


def sniff_payload_kind(path: str) -> str:
    """Classify a diff input: ``"jsonl"`` (telemetry event log) or
    ``"bench-history"`` (``BENCH_*.json``); anything else raises
    ``ValueError`` naming ``path``."""
    with open(path) as fh:
        first_line = fh.readline()
    try:
        obj = json.loads(first_line)
    except ValueError:
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except ValueError:
            obj = None
    if isinstance(obj, dict):
        if obj.get("type") in ("span", "instant", "counter"):
            return "jsonl"
        if obj.get("schema") == "repro.bench/history":
            return "bench-history"
    raise ValueError(f"{path}: not a JSONL event log or a "
                     f"BENCH_*.json history")


def select_record(records: List[Any], selector: str) -> Any:
    """Pick one record out of a BENCH history: ``last``, ``seed:<n>``
    (the last record of that seed) or ``index:<i>``."""
    if not records:
        raise ValueError("empty record list")
    if selector == "last":
        return records[-1]
    if selector.startswith("seed:"):
        seed = int(selector.split(":", 1)[1])
        matches = [r for r in records if r.seed == seed]
        if not matches:
            raise ValueError(f"no record with seed {seed}")
        return matches[-1]
    if selector.startswith("index:"):
        index = int(selector.split(":", 1)[1])
        if not -len(records) <= index < len(records):
            raise ValueError(f"record index {index} out of range: the "
                             f"history has {len(records)} record(s)")
        return records[index]
    raise ValueError(f"unknown record selector {selector!r} "
                     "(use last|seed:<n>|index:<i>)")


def load_view(path: str, selector: str = "last",
              label: Optional[str] = None) -> RunView:
    """Load one diff input into a :class:`RunView`, sniffing its kind."""
    if sniff_payload_kind(path) == "jsonl":
        from repro.telemetry.export import read_jsonl

        return RunView.from_bus(read_jsonl(path), label=label or path)
    from repro.bench.history import BenchHistory

    rec = select_record(BenchHistory.load(path).records, selector)
    return RunView.from_record(rec, label=label)


def diff_records(a: Any, b: Any) -> RunDiff:
    """Diff two stored bench records directly (watchdog --explain path)."""
    return diff_runs(RunView.from_record(a), RunView.from_record(b))
