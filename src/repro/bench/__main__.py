"""Command-line figure runner: ``python -m repro.bench <experiment>``.

Runs one of the paper's experiments and prints its rows and an ASCII chart,
without going through pytest:

    python -m repro.bench table1
    python -m repro.bench fig5 --max-nodes 8
    python -m repro.bench fig8 --telemetry fig8.jsonl   # + its event log
    python -m repro.bench all

The watchdog (no experiment argument needed) measures the cells of
``repro.bench.history.CELLS`` and compares each fresh record, field by
field, with the newest committed record of the same cell in
``BENCH_<app>.json``: each cell prints ``ok``, or ``MOVED`` and the
fields that moved.

    python -m repro.bench --check-regressions            # exit 1 if a pin moved
    python -m repro.bench --check-regressions --apps potrf,fw
    python -m repro.bench --check-regressions --record-history   # move the pins

``--record-history`` appends the fresh records to ``BENCH_<app>.json``
(``--history-dir``, default the current directory) after the
comparison, so moving a pin is that one command.  ``--explain`` (see
``docs/observability.md``) takes the first moved cell of each app:
it prints the field-level diff against its committed record, runs the
deterministic what-if profiler when the makespan moved, and writes
``rootcause-<app>.json`` (``--explain-out``):

    python -m repro.bench --check-regressions --explain

A killed sweep is not resumed: the simulator is deterministic, so
rerunning the command reproduces every record bit for bit.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from repro.bench import figures, history
from repro.bench.harness import (geometric_nodes, merged_event_bus,
                                  print_series, print_table)
from repro.bench.plot import print_chart
from repro.telemetry.cli import positive_int

def run_table1() -> None:
    rows = figures.table1_configs()
    columns = list(rows[0].keys())
    print_table("Table I: simulated machine configurations", columns,
                [[r[c] for c in columns] for r in rows])


def run_figure(name: str, max_nodes: Optional[int],
               cells: Optional[figures.Cells] = None) -> None:
    fig = figures.FIGURES[name]
    kwargs = {} if max_nodes is None else {fig.node_arg: max_nodes}
    series = list(fig.run(cells=cells, **kwargs).values())
    print_series(fig.title, fig.xlabel, series)
    print_chart(series, title=fig.title)


def _check_writable(parser: argparse.ArgumentParser, path: str) -> None:
    """Refuse a log path that cannot be written, before the run."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        parser.error(f"--telemetry {path}: {exc.strerror}")
    if not existed:
        os.remove(path)


def _parse_apps(text: str) -> List[str]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty app list")
    for name in names:
        if name not in history.APPS:
            raise argparse.ArgumentTypeError(
                f"unknown app {name!r} (have: {sorted(history.APPS)})"
            )
    return names


def cell_row(fresh: history.BenchRecord,
             pin: Optional[history.BenchRecord]) -> str:
    """The watchdog's line for one cell: ``ok``, or ``MOVED`` with the
    moved fields or with the note that the cell has no committed record."""
    cell = f"{fresh.app:<6} seed {fresh.seed}  {fresh.config_key}"
    if pin is None:
        return f"MOVED {cell}  no committed record"
    moved = history.moved_fields(pin, fresh)
    return f"MOVED {cell}  moved: {', '.join(moved)}" if moved \
        else f"ok    {cell}"


def explain_moved_pins(
    moved: List[Tuple[history.BenchRecord, Optional[history.BenchRecord]]],
    *,
    out_dir: str = ".",
) -> List[str]:
    """Explain the first cell of each app in ``moved`` that has a pin.

    The fresh record is compared with its pin: the field-level diff
    (:func:`repro.bench.history.record_diff`) and, when the makespan
    moved, the exact what-if attribution
    (:func:`repro.telemetry.whatif.explain`).  Prints nothing itself;
    returns the text blocks.  Writes ``rootcause-<app>.json`` into
    ``out_dir``.
    """
    import json
    from pathlib import Path

    from repro.telemetry import whatif

    Path(out_dir).mkdir(parents=True, exist_ok=True)
    blocks: List[str] = []
    explained = set()
    for fresh, pin in moved:
        if pin is None or fresh.app in explained:
            continue
        explained.add(fresh.app)
        text, diff = history.record_diff(pin, fresh)
        blocks.append(text)
        exp = (whatif.explain(pin, fresh)
               if fresh.makespan != pin.makespan else None)
        if exp is not None:
            blocks.append(exp.format())
        json_path = Path(out_dir) / f"rootcause-{fresh.app}.json"
        with open(json_path, "w") as fh:
            json.dump({"schema": "repro.telemetry/rootcause-v1",
                       "explanation": exp.as_dict() if exp else None,
                       "diff": diff},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        blocks.append(f"wrote {json_path}")
    return blocks


def run_watchdog_cli(args: argparse.Namespace) -> int:
    """--check-regressions / --record-history over the cells of CELLS."""
    pairs, written = history.run_watchdog(
        directory=args.history_dir, apps=args.apps,
        record=args.record_history)
    for fresh, pin in pairs:
        print(cell_row(fresh, pin))
    for path in written:
        print(f"wrote {path}")
    if not args.check_regressions:
        return 0
    moved = [(fresh, pin) for fresh, pin in pairs
             if pin is None or history.moved_fields(pin, fresh)]
    if not moved:
        print(f"all {len(pairs)} cell(s) match their committed records")
        return 0
    print(f"PIN MOVED: {len(moved)} of {len(pairs)} cell(s) differ from "
          f"their newest committed record in BENCH_<app>.json; a change "
          f"that moves a virtual number appends its records with "
          f"--check-regressions --record-history and says why",
          file=sys.stderr)
    if args.explain:
        for block in explain_moved_pins(
                moved, out_dir=args.explain_out or args.history_dir):
            print(block)
    return 1


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate a table/figure of the TTG paper on the "
        "simulator, or check the pinned watchdog cells.",
    )
    parser.add_argument(
        "experiment", nargs="?", default=None,
        choices=["table1", *sorted(figures.FIGURES), "all"],
        help="which experiment to run (omit when using the watchdog flags)",
    )
    parser.add_argument(
        "--max-nodes", type=positive_int, default=None,
        help="override the node-count range (fig6: the fixed node count)",
    )
    parser.add_argument(
        "--telemetry", metavar="LOG.jsonl", default=None,
        help="capture telemetry across every backend the experiment binds "
        "and write their events as one JSONL event log (one rank "
        "namespace per backend)",
    )
    wd = parser.add_argument_group("pinned watchdog")
    wd.add_argument("--record-history", action="store_true",
                    help="measure the pinned cells and append the records "
                    "to the BENCH_<app>.json files, after comparing them")
    wd.add_argument("--check-regressions", action="store_true",
                    help="measure the pinned cells; exit 1 when a field of "
                    "a record differs from the newest committed record of "
                    "its cell, or the cell has none")
    wd.add_argument("--history-dir", default=".", metavar="DIR",
                    help="directory of the BENCH_<app>.json files (default .)")
    wd.add_argument("--apps", type=_parse_apps, default=None,
                    metavar="A,B", help="narrow the cells to these apps "
                    "(default: every pinned app)")
    wd.add_argument("--explain", action="store_true",
                    help="for a moved pin, diff the fresh record against "
                    "the committed one of that cell, run the "
                    "deterministic what-if profiler when the makespan "
                    "moved, and write rootcause-<app>.json")
    wd.add_argument("--explain-out", default=None, metavar="DIR",
                    help="directory for the rootcause-<app>.json "
                    "reports (default --history-dir)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    watchdog = args.record_history or args.check_regressions
    if args.experiment is None and not watchdog:
        parser.error("give an experiment, or --check-regressions / "
                     "--record-history")
    if watchdog:
        return run_watchdog_cli(args)

    names = {"table1": [], "all": sorted(figures.FIGURES)}.get(
        args.experiment, [args.experiment])
    if args.max_nodes is not None:
        for name in names:  # a cap below a sweep is refused before any run
            try:
                geometric_nodes(args.max_nodes,
                                start=figures.FIGURES[name].first_nodes)
            except ValueError as exc:
                parser.error(str(exc))

    def run_all() -> None:
        if args.experiment in ("table1", "all"):
            run_table1()
        cells: figures.Cells = {}  # a cell two figures share runs once
        for name in names:
            run_figure(name, args.max_nodes, cells)

    if args.telemetry is None:
        run_all()
        return 0
    from repro.telemetry import capture, write_jsonl

    _check_writable(parser, args.telemetry)
    with capture(capacity=None) as runs:
        run_all()
    merged = merged_event_bus(runs)
    n = write_jsonl(args.telemetry, merged)
    print(f"\nwrote {args.telemetry} ({n} events, {len(runs)} backend "
          f"run(s); replay: python -m repro.telemetry report "
          f"{args.telemetry})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
