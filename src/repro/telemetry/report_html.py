"""Self-contained single-file HTML run reports (inline SVG, no JS).

``render_report`` turns one recorded event stream into a report a browser
opens with zero external fetches -- the role PaRSEC's trace dashboards
play for the original TTG stack:

- the per-rank Gantt timeline (workers + am-server/rma/protocol lanes)
  with the critical-path tasks highlighted,
- the critical-path chain itself,
- per-template duration table and per-rank idle breakdown,
- accelerator lanes (per-template GPU busy time + PCIe input bytes)
  when the run executed device tasks,
- comm/protocol byte split (including the ``pcie`` channel),
- queue-depth counter sparklines,
- and, when ``BENCH_<app>.json`` history files are passed in, the
  makespan and host-seconds trend charts per application (baseline runs
  filled, commit boundaries marked with dashed rules).

CLI::

    python -m repro.telemetry report-html run.jsonl -o report.html \\
        --history-dir .
"""

from __future__ import annotations

import html as _html
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from repro.telemetry.analyze import (
    critical_path,
    idle_breakdown,
    summary_by_template,
)
from repro.telemetry.events import (
    CounterEvent,
    EventBus,
    Telemetry,
    THREAD_NAMES,
)

#: Okabe-Ito-ish template colors, readable on white.
_COLORS = [
    "#0072B2", "#E69F00", "#009E73", "#D55E00",
    "#CC79A7", "#56B4E9", "#F0E442", "#999999",
]

_CRIT_STROKE = "#d7191c"

_CSS = """
body{font:14px/1.45 -apple-system,'Segoe UI',sans-serif;margin:24px auto;
     max-width:1100px;color:#1a1a2e;background:#fff}
h1{font-size:22px;margin-bottom:2px} h2{font-size:16px;margin:26px 0 6px}
table{border-collapse:collapse;font-size:13px;font-variant-numeric:tabular-nums}
th,td{padding:3px 10px;text-align:right;border-bottom:1px solid #e4e4ee}
th{background:#f4f4fa} td:first-child,th:first-child{text-align:left}
.meta{color:#667;font-size:13px}
.warn{background:#fff3cd;border:1px solid #e0c060;border-radius:4px;
      padding:8px 12px;margin:12px 0;font-size:13px}
.bar{background:#0072B2;height:10px;display:inline-block;border-radius:2px}
.spark{display:inline-block;margin:4px 14px 4px 0;vertical-align:top;
       font-size:11px;color:#667}
svg text{font:10px sans-serif;fill:#334}
.crit{stroke:#d7191c;stroke-width:1.6}
.legend span{display:inline-block;margin-right:14px;font-size:12px}
.legend i{display:inline-block;width:10px;height:10px;margin-right:4px;
          border-radius:2px}
.worse{color:#b3261e;font-weight:600}
.better{color:#1a7a3a;font-weight:600}
.rootcause{background:#fdecea;border:1px solid #d7191c;border-radius:4px;
           padding:10px 14px;margin:12px 0;font-size:13px}
.sidebyside{display:flex;gap:18px;flex-wrap:wrap}
.sidebyside>div{min-width:420px;flex:1}
"""


def _bus_of(source: Union[Telemetry, EventBus]) -> EventBus:
    return source.bus if isinstance(source, Telemetry) else source


def _esc(text: Any) -> str:
    return _html.escape(str(text))


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    return f"{n:.1f} GiB"


class _Palette:
    """Stable name -> color assignment in first-seen order."""

    def __init__(self) -> None:
        self.colors: Dict[str, str] = {}

    def of(self, name: str) -> str:
        if name not in self.colors:
            self.colors[name] = _COLORS[len(self.colors) % len(_COLORS)]
        return self.colors[name]


# ------------------------------------------------------------------- gantt


def _lane_label(rank: int, tid: int) -> str:
    name = THREAD_NAMES.get(tid)
    return f"r{rank} {name}" if name else f"r{rank} w{tid}"


def gantt_svg(
    source: Union[Telemetry, EventBus],
    crit_labels: Iterable[str] = (),
    width: int = 980,
    lane_height: int = 14,
    max_lanes: int = 96,
) -> str:
    """The per-rank timeline as an SVG string; task spans whose
    ``TEMPLATE[key]`` label is in ``crit_labels`` get ``class="crit"``."""
    bus = _bus_of(source)
    spans = [e for e in bus.spans() if e.cat in ("task", "comm", "proto")]
    if not spans:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="240" '
                'height="32"><text x="8" y="20">no spans recorded</text></svg>')
    makespan = max(bus.makespan(), 1e-30)
    crit = set(crit_labels)
    lanes: Dict[Tuple[int, int], int] = {}
    for ev in sorted(spans, key=lambda e: (e.rank, e.tid)):
        lanes.setdefault((ev.rank, ev.tid), len(lanes))
    nlanes = min(len(lanes), max_lanes)
    left, top = 96, 18
    height = top + nlanes * lane_height + 6
    palette = _Palette()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{left + width + 10}" height="{height + 14}" '
        f'role="img" aria-label="Gantt timeline">',
    ]
    # time grid
    for q in range(5):
        x = left + q * width / 4
        parts.append(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
                     f'y2="{height}" stroke="#ececf4"/>')
        parts.append(f'<text x="{x + 2:.1f}" y="{top - 5}">'
                     f'{makespan * q / 4 * 1e3:.2f} ms</text>')
    prev_rank = None
    for (rank, tid), lane in lanes.items():
        if lane >= max_lanes:
            break
        y = top + lane * lane_height
        if rank != prev_rank:
            parts.append(f'<line x1="0" y1="{y}" x2="{left + width}" '
                         f'y2="{y}" stroke="#d8d8e4"/>')
            prev_rank = rank
        parts.append(f'<text x="2" y="{y + 10}">{_esc(_lane_label(rank, tid))}</text>')
    for ev in spans:
        lane = lanes[(ev.rank, ev.tid)]
        if lane >= max_lanes:
            continue
        x = left + ev.start / makespan * width
        w = max(0.6, ev.duration / makespan * width)
        y = top + lane * lane_height
        if ev.cat == "task":
            template = ev.args.get("template", ev.name)
            label = f"{template}[{ev.args.get('key', 'None')}]"
            extra = ' class="crit"' if label in crit else ""
            fill = palette.of(template)
            h = lane_height - 3
        else:
            label = ev.name
            extra = ""
            fill = "#b9b9c9"
            h = lane_height - 7
        title = _esc(f"{label} [{ev.start * 1e6:.1f}..{ev.end * 1e6:.1f} us] "
                     f"rank {ev.rank}")
        parts.append(
            f'<rect x="{x:.2f}" y="{y + 1}" width="{w:.2f}" height="{h}" '
            f'fill="{fill}"{extra}><title>{title}</title></rect>'
        )
    # Durability markers: a green vertical line where a checkpoint was
    # written.
    ckpt_marks = [ev for ev in bus.instants("ckpt")]
    for ev in ckpt_marks:
        x = left + ev.ts / makespan * width
        title = _esc(f"checkpoint #{ev.args.get('index', '?')} at "
                     f"{ev.ts * 1e6:.1f} us "
                     f"(events={ev.args.get('events', '?')})")
        parts.append(
            f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" y2="{height}" '
            f'stroke="#009E73" stroke-width="1.4" stroke-dasharray="3,2">'
            f"<title>{title}</title></line>"
        )
    parts.append("</svg>")
    legend = "".join(
        f'<span><i style="background:{c}"></i>{_esc(name)}</span>'
        for name, c in palette.colors.items()
    )
    legend += (f'<span><i style="background:#fff;border:1.6px solid '
               f'{_CRIT_STROKE}"></i>critical path</span>')
    if ckpt_marks:
        legend += ('<span><i style="background:#009E73"></i>checkpoint'
                   "</span>")
    return "".join(parts) + f'<div class="legend">{legend}</div>'


# -------------------------------------------------------------- sparklines


def sparkline_svg(points: Sequence[Tuple[float, float]],
                  width: int = 220, height: int = 34) -> str:
    """A minimal polyline sparkline of (t, value) samples."""
    if not points:
        return ""
    t0 = points[0][0]
    t1 = max(points[-1][0], t0 + 1e-30)
    vmax = max(v for _, v in points) or 1.0
    coords = " ".join(
        f"{2 + (t - t0) / (t1 - t0) * (width - 4):.1f},"
        f"{height - 2 - v / vmax * (height - 12):.1f}"
        for t, v in points
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">'
        f'<polyline points="{coords}" fill="none" stroke="#0072B2" '
        f'stroke-width="1.2"/>'
        f'<text x="2" y="9">max {vmax:g}</text></svg>'
    )


def _counter_series(bus: EventBus) -> Dict[Tuple[str, int], List[Tuple[float, float]]]:
    series: Dict[Tuple[str, int], List[Tuple[float, float]]] = defaultdict(list)
    for ev in bus.events():
        if isinstance(ev, CounterEvent):
            for field, value in ev.values.items():
                series[(f"{ev.name}/{field}", ev.rank)].append((ev.ts, value))
    return series


# ------------------------------------------------------------ byte splits


def protocol_bytes(source: Union[Telemetry, EventBus]) -> Dict[str, int]:
    """Bytes moved per transport channel, from the recorded comm/proto
    spans (``am:*``, ``rma:*``, ``splitmd:meta:*``, ``splitmd:rma:*``) --
    plus a ``pcie`` channel from accelerator task spans that carried
    host->device transfers (``pcie_bytes`` span arg)."""
    out: Dict[str, int] = defaultdict(int)
    for ev in _bus_of(source).spans():
        if ev.cat == "task":
            pcie = int(ev.args.get("pcie_bytes", 0) or 0)
            if pcie:
                out["pcie"] += pcie
            continue
        if ev.cat not in ("comm", "proto"):
            continue
        parts = ev.name.split(":")
        channel = ":".join(parts[:2]) if parts[0] == "splitmd" else parts[0]
        out[channel] += int(ev.args.get("nbytes", 0))
    return dict(out)


def gpu_lane_summary(source: Union[Telemetry, EventBus]) -> List[Dict[str, Any]]:
    """Per-template aggregation of accelerator task spans.

    GPU executions are recorded as ``<TEMPLATE>@gpu`` spans on the
    device-slot lanes above the worker tids; this rolls them up into the
    per-template rows the ROADMAP's heterogeneous-observability item
    asks for: count, busy time, and the PCIe bytes their inputs paid.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    for ev in _bus_of(source).spans("task"):
        if not ev.name.endswith("@gpu"):
            continue
        template = ev.args.get("template", ev.name[:-len("@gpu")])
        row = rows.setdefault(template, {
            "template": template, "count": 0, "busy": 0.0,
            "pcie_bytes": 0, "ranks": set(),
        })
        row["count"] += 1
        row["busy"] += ev.duration
        row["pcie_bytes"] += int(ev.args.get("pcie_bytes", 0) or 0)
        row["ranks"].add(ev.rank)
    out = []
    for template in sorted(rows):
        row = rows[template]
        row["ranks"] = len(row["ranks"])
        out.append(row)
    return out


# ----------------------------------------------------------- history trend


def trend_svg(history: Any, width: int = 420, height: int = 130,
              metric: str = "makespan") -> str:
    """Trajectory of one BenchHistory metric (baselines = filled dots).

    ``metric`` selects the record field: ``makespan`` (virtual seconds,
    shown in ms) or ``host_seconds`` (wall-clock simulation cost).
    Commit boundaries -- consecutive records whose ``git_sha`` differs --
    are marked with a dashed vertical line titled by the new SHA, so a
    regression is visually attributable to the PR that introduced it.
    """
    records = [r for r in history.records if getattr(r, metric, 0) > 0]
    if not records:
        return ""
    value = lambda r: getattr(r, metric)
    in_ms = metric == "makespan"
    fmt = (lambda v: f"{v * 1e3:.2f} ms") if in_ms else (lambda v: f"{v:.3f} s")
    vmax = max(value(r) for r in records) * 1.1
    left, top = 46, 8
    pw, ph = width - left - 6, height - top - 22
    n = len(records)
    palette = _Palette()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">',
        f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" '
        f'y2="{top + ph}" stroke="#ccd"/>',
        f'<text x="2" y="{top + 8}">{fmt(vmax)}</text>',
        f'<text x="2" y="{top + ph}">0</text>',
    ]
    # Per-PR commit markers: one dashed rule where the recorded git SHA
    # changes along the chronological axis.
    prev_sha = records[0].git_sha
    for i, r in enumerate(records[1:], 1):
        if r.git_sha and r.git_sha != prev_sha:
            x = left + (i / max(n - 1, 1)) * pw
            parts.append(
                f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
                f'y2="{top + ph}" stroke="#99a" stroke-dasharray="3,3" '
                f'class="commit"><title>commit {_esc(r.git_sha)}</title>'
                f'</line>'
            )
        if r.git_sha:
            prev_sha = r.git_sha
    by_group: Dict[str, List[Tuple[int, Any]]] = defaultdict(list)
    for i, r in enumerate(records):
        by_group[r.config_key].append((i, r))
    for key, rows in by_group.items():
        color = palette.of(key)
        pts = []
        for i, r in rows:
            x = left + (i / max(n - 1, 1)) * pw
            y = top + ph - value(r) / vmax * ph
            pts.append((x, y, r))
        if len(pts) > 1:
            coords = " ".join(f"{x:.1f},{y:.1f}" for x, y, _ in pts)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.3"/>')
        for x, y, r in pts:
            fill = color if r.baseline else "#fff"
            title = _esc(f"{key} seed={r.seed} {fmt(value(r))} "
                         f"{r.gflops:.1f} Gflop/s "
                         f"{'baseline ' if r.baseline else ''}{r.git_sha}")
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" '
                         f'fill="{fill}" stroke="{color}">'
                         f'<title>{title}</title></circle>')
    parts.append(f'<text x="{left}" y="{height - 4}">run # (chronological; '
                 f'filled = baseline; dashes = new commit)</text>')
    parts.append("</svg>")
    return "".join(parts)


def load_histories(directory: str = ".") -> List[Any]:
    """Every loadable ``BENCH_*.json`` history in ``directory``."""
    from pathlib import Path

    from repro.bench.history import BenchHistory

    out = []
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        try:
            out.append(BenchHistory.load(path))
        except (ValueError, KeyError, OSError):
            continue
    return out


# ------------------------------------------------------------------ report


def _section(title: str, body: str) -> str:
    return f"<h2>{_esc(title)}</h2>\n{body}\n"


def _table(columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_esc(c)}</th>" for c in columns)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def render_report(
    source: Union[Telemetry, EventBus],
    title: str = "repro run report",
    histories: Sequence[Any] = (),
) -> str:
    """The full single-file HTML report as a string."""
    bus = _bus_of(source)
    cp = critical_path(bus)
    templates = summary_by_template(bus)
    ranks = idle_breakdown(source)
    dropped = sum(bus.dropped)
    out: List[str] = [
        "<!DOCTYPE html>",
        f'<html lang="en"><head><meta charset="utf-8">'
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f'<p class="meta">{len(bus)} events on {bus.nranks} rank(s), '
        f"makespan {bus.makespan() * 1e3:.3f} ms, critical path "
        f"{cp.length} tasks ({cp.fraction * 100:.1f}% of makespan)</p>",
    ]
    if dropped:
        out.append(
            f'<div class="warn">WARNING: {dropped} event(s) were evicted '
            f"from the ring buffers (per-rank: {list(bus.dropped)}). Every "
            f"number below is computed on a truncated window; re-record "
            f"with a larger <code>--capacity</code>.</div>"
        )

    out.append(_section("Timeline", gantt_svg(bus, cp.labels())))

    if cp.nodes:
        rows = [
            (f"{_esc(n.template)}[{_esc(n.key)}]", n.rank,
             f"{n.start * 1e6:.2f}", f"{n.end * 1e6:.2f}",
             f"{n.duration * 1e6:.2f}")
            for n in cp.nodes
        ]
        out.append(_section(
            "Critical path",
            f'<p class="meta">{cp.compute_time * 1e3:.3f} ms compute on the '
            f"path of {cp.makespan * 1e3:.3f} ms makespan</p>"
            + _table(["task", "rank", "start us", "end us", "dur us"], rows),
        ))

    if templates:
        total = sum(s.total for s in templates) or 1.0
        rows = [
            (_esc(s.template), s.count, f"{s.total * 1e3:.3f}",
             f"{s.mean * 1e6:.2f}", f"{s.max * 1e6:.2f}",
             f'<span class="bar" style="width:{s.total / total * 120:.0f}px">'
             f"</span> {s.total / total * 100:.1f}%")
            for s in templates
        ]
        out.append(_section("Per-template durations", _table(
            ["template", "count", "total ms", "mean us", "max us", "share"],
            rows,
        )))

    if ranks:
        rows = [
            (f"rank {r.rank}", r.workers, f"{r.busy * 1e3:.3f}",
             f"{r.comm * 1e3:.3f}", f"{r.idle * 1e3:.3f}",
             f"{r.utilization * 100:.1f}%")
            for r in ranks
        ]
        out.append(_section("Idle breakdown", _table(
            ["", "workers", "busy ms", "comm ms", "idle ms", "utilization"],
            rows,
        )))

    gpu = gpu_lane_summary(bus)
    if gpu:
        total_busy = sum(r["busy"] for r in gpu) or 1.0
        rows = [
            (_esc(r["template"]), r["count"], r["ranks"],
             f"{r['busy'] * 1e3:.3f}", _fmt_bytes(r["pcie_bytes"]),
             f'<span class="bar" style="width:'
             f'{r["busy"] / total_busy * 120:.0f}px"></span> '
             f"{r['busy'] / total_busy * 100:.1f}%")
            for r in gpu
        ]
        out.append(_section("Accelerator lanes", _table(
            ["template", "tasks", "ranks", "busy ms", "PCIe in", "share"],
            rows,
        )))

    proto = protocol_bytes(bus)
    if proto:
        total_b = sum(proto.values()) or 1
        rows = [
            (_esc(chan), _fmt_bytes(n),
             f'<span class="bar" style="width:{n / total_b * 120:.0f}px">'
             f"</span> {n / total_b * 100:.1f}%")
            for chan, n in sorted(proto.items(), key=lambda kv: -kv[1])
        ]
        out.append(_section("Comm / protocol byte split",
                            _table(["channel", "bytes", "share"], rows)))

    series = _counter_series(bus)
    if series:
        sparks = []
        for (name, rank), points in sorted(series.items())[:16]:
            sparks.append(
                f'<span class="spark">{_esc(name)} r{rank}<br>'
                f"{sparkline_svg(points)}</span>"
            )
        out.append(_section("Counters", "".join(sparks)))

    trends = []
    for hist in histories:
        svg = trend_svg(hist)
        if svg:
            trends.append(
                f'<span class="spark"><b>{_esc(hist.app)}</b> makespan '
                f"({len(hist.records)} runs)<br>{svg}</span>"
            )
        host_svg = trend_svg(hist, metric="host_seconds")
        if host_svg:
            trends.append(
                f'<span class="spark"><b>{_esc(hist.app)}</b> host seconds '
                f"(simulation cost)<br>{host_svg}</span>"
            )
    if trends:
        out.append(_section("Benchmark history", "".join(trends)))

    out.append('<p class="meta">generated by repro.telemetry '
               "report-html &mdash; fully self-contained, no external "
               "resources</p></body></html>")
    return "\n".join(out)


def write_report_html(
    path: str,
    source: Union[Telemetry, EventBus],
    title: str = "repro run report",
    histories: Sequence[Any] = (),
) -> int:
    """Write the report; returns the byte count written."""
    text = render_report(source, title=title, histories=histories)
    with open(path, "w") as fh:
        fh.write(text)
    return len(text.encode())


# -------------------------------------------------------------- diff report


def _delta_cell(delta: float, fmt: str = "{:+.3f}",
                worse_positive: bool = True) -> str:
    """A delta table cell colored by direction (red = worse)."""
    if delta == 0.0:
        return fmt.format(0.0)
    worse = (delta > 0) == worse_positive
    cls = "worse" if worse else "better"
    return f'<span class="{cls}">{fmt.format(delta)}</span>'


def render_diff_report(
    diff: Any,
    *,
    explanation: Any = None,
    bus_a: Union[Telemetry, EventBus, None] = None,
    bus_b: Union[Telemetry, EventBus, None] = None,
    histories: Sequence[Any] = (),
    title: str = "run diff report",
) -> str:
    """The side-by-side regression/diff report as a single HTML file.

    ``diff`` is a :class:`repro.telemetry.diff.RunDiff`; ``explanation``
    (optional) a :class:`repro.telemetry.whatif.Explanation` whose
    root-cause block leads the page.  When both runs' event buses are
    available the two Gantt timelines render side by side with the
    critical-path tasks highlighted (the delta lanes); ``histories`` adds
    the trend charts so the regression is visible in its trajectory.
    """
    d = diff.makespan_delta
    pct = 100.0 * d / diff.makespan_a if diff.makespan_a else 0.0
    out: List[str] = [
        "<!DOCTYPE html>",
        f'<html lang="en"><head><meta charset="utf-8">'
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f'<p class="meta">A = {_esc(diff.a_label)} &nbsp;&middot;&nbsp; '
        f"B = {_esc(diff.b_label)}<br>"
        f"makespan {diff.makespan_a * 1e3:.3f} ms &rarr; "
        f"{diff.makespan_b * 1e3:.3f} ms "
        f"({_delta_cell(d * 1e3, '{:+.3f} ms')}, "
        f"{_delta_cell(pct, '{:+.1f}%')})</p>",
    ]

    if explanation is not None:
        top = explanation.top()
        body = [f"<b>Root cause (exact what-if replay):</b><br>"]
        for a in explanation.attributions[:8]:
            exact = (" &mdash; recovers the baseline <b>exactly</b>"
                     if a.exact_baseline else "")
            body.append(
                f"template <b>{_esc(a.template)}</b>: a "
                f"{a.probe_factor:g}&times; speedup there recovers "
                f"{a.share * 100:.1f}% of the delta "
                f"({a.recovered * 1e3:+.4f} ms){exact}<br>")
        if top is not None and top.share > 0.0:
            body.append(f"&rArr; <b>{_esc(top.template)}</b> accounts for "
                        f"{top.share * 100:.0f}% of the regression")
        out.append(f'<div class="rootcause">{"".join(body)}</div>')

    if bus_a is not None and bus_b is not None:
        cp_a = critical_path(_bus_of(bus_a))
        cp_b = critical_path(_bus_of(bus_b))
        out.append(_section(
            "Timelines (side by side, critical paths highlighted)",
            '<div class="sidebyside">'
            f"<div><p class='meta'>A: {_esc(diff.a_label)}</p>"
            f"{gantt_svg(bus_a, cp_a.labels(), width=560)}</div>"
            f"<div><p class='meta'>B: {_esc(diff.b_label)}</p>"
            f"{gantt_svg(bus_b, cp_b.labels(), width=560)}</div>"
            "</div>",
        ))

    ranked = diff.ranked_templates()
    if ranked:
        if diff.has_spans:
            rows = [
                (_esc(t.template), f"{t.count_a}/{t.count_b}",
                 f"{t.total_a * 1e3:.3f}", f"{t.total_b * 1e3:.3f}",
                 _delta_cell(t.delta * 1e3, "{:+.3f}"))
                for t in ranked
            ]
            out.append(_section("Per-template span totals (ranked by movement)",
                                _table(["template", "count A/B", "total A ms",
                                        "total B ms", "delta ms"], rows)))
        else:
            rows = [
                (_esc(t.template), t.count_a, t.count_b,
                 _delta_cell(float(t.count_delta), "{:+.0f}"))
                for t in ranked
            ]
            out.append(_section("Per-template task counts",
                                _table(["template", "count A", "count B",
                                        "delta"], rows)))

    shares = diff.attribution()
    if shares:
        rows = [
            (_esc(name),
             f'<span class="bar" style="width:'
             f'{min(abs(share), 1.0) * 120:.0f}px"></span> '
             f"{share * 100:.1f}%")
            for name, share in shares[:8]
        ]
        out.append(_section("Attribution (share of makespan delta)",
                            _table(["template", "share"], rows)))

    if diff.protocols:
        rows = [
            (_esc(chan), _fmt_bytes(va), _fmt_bytes(vb),
             _delta_cell(dv, "{:+,.0f} B"))
            for chan, va, vb, dv in diff.protocols
        ]
        out.append(_section("Protocol byte split",
                            _table(["channel", "A", "B", "delta"], rows)))

    if diff.ranks:
        rows = [
            (f"rank {r}", f"{ia * 1e3:.3f}", f"{ib * 1e3:.3f}",
             _delta_cell(dv * 1e3, "{:+.3f}"))
            for r, ia, ib, dv in diff.ranks
        ]
        out.append(_section("Per-rank idle time (ms)",
                            _table(["", "A", "B", "delta"], rows)))

    if diff.cp_entered or diff.cp_left or diff.cp_common:
        body = [f'<p class="meta">{len(diff.cp_entered)} task(s) entered '
                f"the critical path, {len(diff.cp_left)} left, "
                f"{len(diff.cp_common)} in common</p>"]
        rows = (
            [(f"+ {_esc(lab)}", "", "", "") for lab in diff.cp_entered[:10]]
            + [(f"- {_esc(lab)}", "", "", "") for lab in diff.cp_left[:10]]
            + [(f"~ {_esc(lab)}", f"{va * 1e6:.2f}", f"{vb * 1e6:.2f}",
                _delta_cell(dv * 1e6, "{:+.2f}"))
               for lab, va, vb, dv in sorted(
                   diff.cp_common, key=lambda r: -abs(r[3]))[:10]
               if dv != 0.0]
        )
        if rows:
            body.append(_table(["task", "A us", "B us", "delta us"], rows))
        out.append(_section("Critical-path churn", "".join(body)))

    changed = [(k, va, vb, dv) for k, va, vb, dv in diff.counters if dv != 0.0]
    if changed:
        rows = [
            (_esc(k), f"{va:.6g}", f"{vb:.6g}", _delta_cell(dv, "{:+.6g}"))
            for k, va, vb, dv in changed[:40]
        ]
        out.append(_section("Counter deltas",
                            _table(["counter", "A", "B", "delta"], rows)))

    trends = []
    for hist in histories:
        svg = trend_svg(hist)
        if svg:
            trends.append(
                f'<span class="spark"><b>{_esc(hist.app)}</b> makespan '
                f"trend ({len(hist.records)} runs)<br>{svg}</span>"
            )
    if trends:
        out.append(_section("Trend context (filled = baseline, dashes = "
                            "new commit)", "".join(trends)))

    out.append('<p class="meta">generated by repro.telemetry diff &mdash; '
               "fully self-contained, no external resources</p></body></html>")
    return "\n".join(out)


def write_diff_report_html(
    path: str,
    diff: Any,
    *,
    explanation: Any = None,
    bus_a: Union[Telemetry, EventBus, None] = None,
    bus_b: Union[Telemetry, EventBus, None] = None,
    histories: Sequence[Any] = (),
    title: str = "run diff report",
) -> int:
    """Write the diff/root-cause report; returns the byte count written."""
    text = render_diff_report(
        diff, explanation=explanation, bus_a=bus_a, bus_b=bus_b,
        histories=histories, title=title,
    )
    with open(path, "w") as fh:
        fh.write(text)
    return len(text.encode())
