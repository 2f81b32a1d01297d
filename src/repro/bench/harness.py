"""Series runner and table printer for the figure benchmarks.

Every figure benchmark produces :class:`Series` objects -- named sequences
of (x, y) points -- and prints them in the same rows/columns layout the
paper reports, so a bench run's stdout *is* the regenerated figure data.

:func:`merged_event_bus` is the bench side of the telemetry
integration: ``python -m repro.bench <fig> --telemetry LOG.jsonl``
captures every backend the figure binds and writes their events as one
JSONL event log, which ``python -m repro.telemetry report`` and
``export`` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence, Tuple


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
    """start, 2*start, 4*start, ... up to max_nodes.

    Raises ``ValueError`` when ``max_nodes < start``: a sweep with no
    point is a caller error, not an empty figure.
    """
    if max_nodes < start:
        raise ValueError(f"max nodes {max_nodes} is below the sweep's "
                         f"first node count {start}")
    out = []
    n = start
    while n <= max_nodes:
        out.append(n)
        n *= 2
    return out


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
