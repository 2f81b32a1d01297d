"""``python -m repro.telemetry`` -- record and analyze executions.

Subcommands:

- ``record SCRIPT`` -- execute a Python script (as ``__main__``, exactly
  like running it), attach a :class:`~repro.telemetry.events.Telemetry`
  to every backend it binds a graph to, and export the recording::

      python -m repro.telemetry record examples/cholesky_example.py \\
          --export trace.json --jsonl events.jsonl
      python -m repro.telemetry record examples/cholesky_example.py \\
          --report

  Scripts binding several backends record one run each; ``--graph N``
  selects which run the exporters use (default 0, ``--list`` shows all).

- ``report LOG.jsonl`` -- per-template summary, idle breakdown,
  per-channel byte split, critical path and sanitizer
  findings of a recorded JSONL event log (``record --report`` prints the
  same for a fresh run).
- ``export LOG.jsonl -o trace.json`` -- convert JSONL to a Chrome trace,
  validated after writing; open it in Perfetto for the timeline.
- ``whatif HISTORY.json`` -- deterministic causal profiling: replay a
  recorded run with perturbed costs (``--speedup T=F``,
  ``--latency-scale``, ``--bandwidth-scale``, ``--nodes``) and report the
  exact counterfactual makespan; ``--sweep`` ranks every knob.

What moved between two runs: ``report`` each side and diff the texts,
``diff <(python -m repro.telemetry report a.jsonl) <(... b.jsonl)``.

A recording whose ring buffers evicted events gets one ``WARNING`` line
from ``report``, ``export`` and ``record --export``.  Exit status 0 on
success; 1 when the script crashed, an exported trace failed validation,
nothing was recorded, or an input could not be read (one line
``<subcommand>: <path>: <reason>``).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import traceback
from contextlib import redirect_stdout
from typing import List, Optional, Sequence, TextIO, Union

from repro.telemetry import analyze
from repro.telemetry.events import EventBus, RecordedRun, Telemetry, capture
from repro.telemetry.export import (
    read_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


def run_script(path: str, capacity: Optional[int] = None) -> tuple:
    """Execute ``path`` under :func:`~repro.telemetry.events.capture`.

    Returns ``(runs, script_output, crash)``; ``crash`` is a formatted
    traceback string or None.
    """
    try:
        with open(path) as fh:
            source = fh.read()
    except OSError as e:
        return [], "", f"cannot read {path}: {e}"

    globalns = {"__name__": "__main__", "__file__": path,
                "__builtins__": __builtins__}
    crash = None
    buf = io.StringIO()
    with capture(capacity=capacity) as runs:
        try:
            with redirect_stdout(buf):
                exec(compile(source, path, "exec"), globalns)
        except SystemExit as e:
            if e.code not in (None, 0):
                crash = f"script exited with status {e.code}"
        except BaseException:
            crash = traceback.format_exc(limit=8)
    return runs, buf.getvalue(), crash


def _select_run(runs: List[RecordedRun], index: int, out: TextIO) -> Optional[RecordedRun]:
    if not runs:
        print("no graphs were bound to a backend; nothing recorded", file=out)
        return None
    if not (0 <= index < len(runs)):
        print(f"--graph {index} out of range; recorded {len(runs)} run(s):",
              file=out)
        for i, run in enumerate(runs):
            print(f"  [{i}] {run.label}", file=out)
        return None
    return runs[index]


# -------------------------------------------------------------- subcommands


def cmd_record(args: argparse.Namespace, out: TextIO) -> int:
    runs, script_output, crash = run_script(args.script,
                                            capacity=args.capacity)
    if args.verbose and script_output:
        for ln in script_output.rstrip().splitlines():
            print("  | " + ln, file=out)
    if crash is not None:
        print(f"== repro.telemetry == {args.script}: script failed", file=out)
        for ln in crash.rstrip().splitlines():
            print("  " + ln, file=out)
        return 1

    print(f"== repro.telemetry == {args.script}: {len(runs)} run(s)", file=out)
    for i, run in enumerate(runs):
        marker = "*" if i == args.graph else " "
        print(f"  [{i}]{marker} {run.label}: {len(run.telemetry.bus)} events",
              file=out)
    if args.list:
        return 0
    run = _select_run(runs, args.graph, out)
    if run is None:
        return 1

    if args.export:
        if not _export(args.export, run.telemetry, out):
            return 1
        print(f"  wrote {args.export} (valid Chrome trace)", file=out)
    if args.jsonl:
        n = write_jsonl(args.jsonl, run.telemetry)
        print(f"  wrote {args.jsonl} ({n} events)", file=out)
    if args.report:
        print(analyze.report(run.telemetry), file=out)
    return 0


def _export(path: str, source: Union[Telemetry, EventBus],
            out: TextIO) -> bool:
    """Write the Chrome trace of ``source`` to ``path`` and validate what
    was written.  Prints the drop warning of a truncated recording and
    any validation problem; True when the trace is valid."""
    write_chrome_trace(path, source)
    with open(path) as fh:
        problems = validate_chrome_trace(json.load(fh))
    warning = analyze.drop_warning(source)
    if warning is not None:
        print(warning, file=out)
    if problems:
        print(f"{path} FAILED validation:", file=out)
        for p in problems[:20]:
            print(f"  {p}", file=out)
    return not problems


def cmd_report(args: argparse.Namespace, out: TextIO) -> int:
    print(analyze.report(read_jsonl(args.log)), file=out)
    return 0


def cmd_export(args: argparse.Namespace, out: TextIO) -> int:
    bus = read_jsonl(args.log)
    if not _export(args.output, bus, out):
        return 1
    print(f"wrote {args.output} ({len(bus)} events)", file=out)
    return 0


def cmd_whatif(args: argparse.Namespace, out: TextIO) -> int:
    from repro.bench.history import BenchHistory, select_record
    from repro.telemetry import whatif

    history = BenchHistory.load(args.history)
    record = select_record(history.records, args.select)
    speedups = dict(whatif.parse_factor(s) for s in args.speedup or ())

    if args.sweep:
        rows = whatif.sensitivity(
            record, factor=args.factor,
            node_counts=tuple(args.nodes) if args.nodes else (),
        )
        if args.json:
            json.dump({
                "schema": "repro.telemetry/whatif-sweep-v1",
                "record": {"app": record.app, "seed": record.seed,
                           "makespan": record.makespan,
                           "cost_overrides": record.cost_overrides},
                "rows": [
                    {"knob": s.knob, "kind": s.kind, "makespan": s.makespan,
                     "delta": s.delta, "pct": s.pct}
                    for s in rows
                ],
            }, out, indent=2)
            print(file=out)
        else:
            print(f"what-if sweep over {record.app} seed {record.seed} "
                  f"(makespan {record.makespan * 1e3:.4f} ms, factor "
                  f"{args.factor:g}):", file=out)
            print(whatif.format_sensitivity(rows), file=out)
        return 0

    rep = whatif.replay_record(
        record,
        speedups=speedups,
        latency_scale=args.latency_scale,
        bandwidth_scale=args.bandwidth_scale,
        nodes=args.nodes[0] if args.nodes else None,
    )
    delta = rep.makespan - record.makespan
    if args.json:
        json.dump({
            "schema": "repro.telemetry/whatif-v1",
            "record": {"app": record.app, "seed": record.seed,
                       "makespan": record.makespan,
                       "cost_overrides": record.cost_overrides},
            "probe": {"speedups": speedups,
                      "latency_scale": args.latency_scale,
                      "bandwidth_scale": args.bandwidth_scale,
                      "nodes": args.nodes[0] if args.nodes else None},
            "makespan": rep.makespan,
            "delta": delta,
        }, out, indent=2)
        print(file=out)
    else:
        knobs = ", ".join(
            [f"{k}={v:g}" for k, v in speedups.items()]
            + ([f"latency x{args.latency_scale:g}"]
               if args.latency_scale != 1.0 else [])
            + ([f"bandwidth x{args.bandwidth_scale:g}"]
               if args.bandwidth_scale != 1.0 else [])
            + ([f"nodes {args.nodes[0]}"] if args.nodes else [])
        ) or "none (pure replay)"
        print(f"what-if replay of {record.app} seed {record.seed} "
              f"(recorded overrides: {record.cost_overrides or '{}'}):",
              file=out)
        print(f"  knobs: {knobs}", file=out)
        print(f"  makespan {record.makespan * 1e3:.4f} -> "
              f"{rep.makespan * 1e3:.4f} ms ({delta * 1e3:+.4f} ms)", file=out)
    return 0


# -------------------------------------------------------------------- main


def positive_int(text: str) -> int:
    """An argparse type: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.telemetry`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Record, export and analyze TTG runtime telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="run a script with telemetry attached")
    p.add_argument("script", help="Python script that builds and runs TTGs")
    p.add_argument("--export", metavar="TRACE.json",
                   help="write a Chrome trace (validated after writing)")
    p.add_argument("--jsonl", metavar="LOG.jsonl",
                   help="write the raw event log")
    p.add_argument("--report", action="store_true",
                   help="print the text report of the run")
    p.add_argument("--graph", type=int, default=0, metavar="N",
                   help="which recorded run the exporters use (default 0)")
    p.add_argument("--list", action="store_true",
                   help="only list the recorded runs")
    p.add_argument("--capacity", type=positive_int, default=None, metavar="N",
                   help="per-rank ring-buffer capacity (default unbounded)")
    p.add_argument("--verbose", action="store_true",
                   help="show the script's own stdout")
    p.set_defaults(fn=cmd_record)

    p = sub.add_parser("report", help="summarize a JSONL event log")
    p.add_argument("log")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("export", help="convert a JSONL log to a Chrome trace")
    p.add_argument("log")
    p.add_argument("-o", "--output", required=True, metavar="TRACE.json")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser(
        "whatif",
        help="exact counterfactual replay of a recorded bench run")
    p.add_argument("history", metavar="BENCH_app.json")
    p.add_argument("--select", default="last", metavar="SEL",
                   help="record selector: last | seed:<n> | index:<i> "
                        "(default last)")
    p.add_argument("--speedup", action="append", metavar="TEMPLATE=FACTOR",
                   help="virtual speedup probe (repeatable; FACTOR>1 "
                        "speeds the template up, <1 slows it down)")
    p.add_argument("--latency-scale", type=float, default=1.0, metavar="F",
                   help="scale network latency by F")
    p.add_argument("--bandwidth-scale", type=float, default=1.0, metavar="F",
                   help="scale network bandwidth by F")
    p.add_argument("--nodes", type=int, action="append", metavar="N",
                   help="replay at N ranks (repeatable with --sweep)")
    p.add_argument("--sweep", action="store_true",
                   help="rank makespan sensitivity across every knob")
    p.add_argument("--factor", type=float, default=2.0, metavar="F",
                   help="probe factor for --sweep (default 2)")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable result object")
    p.set_defaults(fn=cmd_whatif)

    return parser


def main(argv: Optional[Sequence[str]] = None,
         stream: Optional[TextIO] = None) -> int:
    args = build_parser().parse_args(argv)
    out = stream or sys.stdout
    try:
        return args.fn(args, out)
    except BrokenPipeError:
        return 0  # downstream consumer (head, less) closed the pipe
    except OSError as e:
        # Unreadable input: one line naming the file.
        where = f"{e.filename}: {e.strerror}" if e.filename else str(e)
        print(f"{args.command}: {where}", file=out)
        return 1
    except ValueError as e:
        # Loaders name the path first: "<path>: <reason>".
        print(f"{args.command}: {e}", file=out)
        return 1
