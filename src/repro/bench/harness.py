"""Series runner and table printer for the figure benchmarks.

Every figure benchmark produces :class:`Series` objects -- named sequences
of (x, y) points -- and prints them in the same rows/columns layout the
paper reports, so a bench run's stdout *is* the regenerated figure data.

:func:`write_telemetry_counters` is the bench side of the telemetry
integration: ``python -m repro.bench <fig> --telemetry counters.json``
captures every backend the figure binds (metrics only, no event buffers)
and writes the merged counters JSON next to the printed rows, so a figure
regression can be diagnosed by ``python -m repro.telemetry compare``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Series:
    """One curve of a figure."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    def y_at(self, x: float) -> Optional[float]:
        for px, py in self.points:
            if px == x:
                return py
        return None

    @property
    def xs(self) -> List[float]:
        return [p[0] for p in self.points]

    @property
    def ys(self) -> List[float]:
        return [p[1] for p in self.points]

    def monotone_increasing(self, tol: float = 0.02) -> bool:
        """True when each point is at least (1-tol) of its predecessor."""
        ys = self.ys
        return all(b >= a * (1 - tol) for a, b in zip(ys, ys[1:]))


def geometric_nodes(max_nodes: int, start: int = 1) -> List[int]:
    """1, 2, 4, ... up to max_nodes."""
    out = []
    n = start
    while n <= max_nodes:
        out.append(n)
        n *= 2
    return out


def write_telemetry_counters(
    path: str, runs: Sequence[Any], meta: Optional[Dict[str, Any]] = None
) -> int:
    """Merge the metric registries of captured runs into one counters JSON.

    ``runs`` is the list yielded by :func:`repro.telemetry.adapter.capture`;
    returns the number of metric series written.
    """
    from repro.telemetry.events import Telemetry
    from repro.telemetry.export import write_counters_json

    merged = Telemetry(events=False)
    full_meta = dict(meta or {})
    full_meta["runs"] = [run.label for run in runs]
    for run in runs:
        merged.metrics.merge(run.telemetry.metrics)
    write_counters_json(path, merged, meta=full_meta)
    return len(merged.metrics)


def merged_event_bus(runs: Sequence[Any]) -> Any:
    """One EventBus holding every captured run's events.

    Each run keeps its own virtual clock, so runs are kept apart by
    *rank namespacing*: run ``i``'s rank ``r`` becomes rank
    ``offset_i + r`` in the merged bus (offsets are cumulative rank
    counts).  Dropped-event counts carry over per namespaced rank.
    """
    from repro.telemetry.events import EventBus

    merged = EventBus(nranks=1, capacity=None)
    offset = 0
    for run in runs:
        bus = run.telemetry.bus
        merged.ensure_ranks(offset + bus.nranks)
        merged.extend(bus.events(), rank_offset=offset)
        for r, n in enumerate(bus.dropped):
            merged.dropped[offset + r] += n
        offset += bus.nranks
    return merged


def write_telemetry_bundle(
    counters_path: str, runs: Sequence[Any],
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, str]:
    """The full bench-side telemetry emission: counters JSON plus the
    Chrome trace and JSONL event log (``<stem>.trace.json`` /
    ``<stem>.jsonl``) of the rank-namespaced merged event stream, so a
    bench run replays into ``python -m repro.telemetry report-html``.

    Returns ``{kind: path}`` for what was written (trace/jsonl are
    skipped when the capture recorded no events).
    """
    from repro.telemetry.export import write_chrome_trace, write_jsonl

    write_telemetry_counters(counters_path, runs, meta)
    out = {"counters": counters_path}
    merged = merged_event_bus(runs)
    if len(merged) == 0:
        return out
    stem = counters_path[:-5] if counters_path.endswith(".json") else counters_path
    trace_path, jsonl_path = f"{stem}.trace.json", f"{stem}.jsonl"
    write_chrome_trace(trace_path, merged)
    write_jsonl(jsonl_path, merged)
    out["trace"] = trace_path
    out["jsonl"] = jsonl_path
    return out


def print_table(title: str, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Plain fixed-width table (captured by pytest -s / tee)."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    print()
    print(f"== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def print_series(
    title: str,
    xlabel: str,
    series: Sequence[Series],
    yfmt: str = "{:.1f}",
) -> None:
    """Print curves side by side, one row per x value."""
    xs = sorted({x for s in series for x in s.xs})
    columns = [xlabel] + [s.name for s in series]
    rows = []
    for x in xs:
        row = [f"{x:g}"]
        for s in series:
            y = s.y_at(x)
            row.append("-" if y is None else yfmt.format(y))
        rows.append(row)
    print_table(title, columns, rows)
