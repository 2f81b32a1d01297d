"""Command-line figure runner: ``python -m repro.bench <experiment>``.

Runs one of the paper's experiments and prints its rows and an ASCII chart,
without going through pytest:

    python -m repro.bench table1
    python -m repro.bench fig5 --max-nodes 8
    python -m repro.bench fig8 --telemetry fig8.json   # + .trace.json/.jsonl
    python -m repro.bench all

The benchmark-history watchdog (no experiment argument needed):

    python -m repro.bench --record-history --update-baseline
    python -m repro.bench --check-regressions            # exit 1 on regression
    python -m repro.bench --check-regressions --record-history --seeds 0,1,2
    python -m repro.bench --record-history --parallel 4

Root-causing a failure (see ``docs/observability.md``): ``--explain``
auto-runs the trace differ and the deterministic what-if profiler against
the baseline window, prints the root-cause block under the failure, and
writes ``rootcause-<app>.json`` (``--explain-out``).
``--slowdown TEMPLATE=FACTOR`` injects a synthetic cost regression through
the same :class:`repro.sim.cluster.CostOverrides` hook the profiler
probes with, so the whole pipeline is testable end to end:

    python -m repro.bench --check-regressions --explain
    python -m repro.bench --check-regressions --slowdown GEMM=2 --explain

A killed sweep is not resumed: the simulator is deterministic, so
rerunning the command reproduces every record bit for bit.

History lives in ``BENCH_<app>.json`` files (``--history-dir``, default the
current directory); see :mod:`repro.bench.history`.  The append-only files
are compacted with ``python -m repro.bench prune --keep 50``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.bench import figures, history
from repro.bench.harness import print_series, print_table, write_telemetry_bundle
from repro.bench.plot import print_chart

_FIGS: Dict[str, Callable] = {
    "fig5": figures.fig5_potrf_weak,
    "fig6": figures.fig6_potrf_problem,
    "fig8": figures.fig8_fw_hawk,
    "fig9": figures.fig9_fw_seawulf,
    "fig12": figures.fig12_bspmm,
    "fig13a": figures.fig13a_mra_seawulf,
    "fig13b": figures.fig13b_mra_hawk,
}

_TITLES = {
    "fig5": ("Fig 5: POTRF weak scaling, Hawk (Gflop/s)", "nodes"),
    "fig6": ("Fig 6: POTRF problem-size scaling (Gflop/s)", "n"),
    "fig8": ("Fig 8: FW-APSP strong scaling, Hawk (Gflop/s)", "nodes"),
    "fig9": ("Fig 9: FW-APSP strong scaling, Seawulf (Gflop/s)", "nodes"),
    "fig12": ("Fig 12: BSPMM strong scaling (Gflop/s)", "nodes"),
    "fig13a": ("Fig 13a: MRA strong scaling, Seawulf (functions/s)", "nodes"),
    "fig13b": ("Fig 13b: MRA strong scaling, Hawk (functions/s)", "nodes"),
}


def run_table1() -> None:
    rows = figures.table1_configs()
    columns = list(rows[0].keys())
    print_table("Table I: simulated machine configurations", columns,
                [[r[c] for c in columns] for r in rows])


def run_figure(name: str, max_nodes: Optional[int]) -> None:
    fn = _FIGS[name]
    kwargs = {}
    if max_nodes is not None:
        key = "nodes" if name == "fig6" else "max_nodes"
        kwargs[key] = max_nodes
    series = fn(**kwargs)
    title, xlabel = _TITLES[name]
    print_series(title, xlabel, list(series.values()))
    print_chart(list(series.values()), title=title)


def _parse_seeds(text: str) -> List[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}")


def _parse_names(text: str, known, what: str) -> List[str]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    for name in names:
        if name not in known:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {name!r} (have: {sorted(known)})"
            )
    return names


def _parse_apps(text: str) -> List[str]:
    return _parse_names(text, history.APPS, "app")


def run_prune(args: argparse.Namespace) -> int:
    """``prune``: compact the append-only BENCH_<app>.json files."""
    total = 0
    for app in args.apps:
        path = history.BenchHistory.path_for(app, args.history_dir)
        if not path.exists():
            print(f"{path}: no history, skipped")
            continue
        hist = history.BenchHistory.load(path)
        dropped = hist.prune(args.keep, keep_baselines=not args.drop_old_baselines)
        hist.save(path)
        print(f"{path}: dropped {dropped} record(s), kept {len(hist)}")
        total += dropped
    print(f"pruned {total} record(s) total (keep={args.keep} per config group)")
    return 0


def _parse_slowdowns(specs: List[str]) -> Dict[str, object]:
    """``--slowdown T=F`` knobs -> a CostOverrides dict (speedup 1/F)."""
    from repro.telemetry.whatif import parse_factor

    speedups = {}
    for spec in specs:
        name, factor = parse_factor(spec)
        speedups[name] = 1.0 / factor
    return {"speedups": speedups}


def explain_regressions(
    reports: List["history.RegressionReport"],
    fresh: Dict[str, List["history.BenchRecord"]],
    *,
    history_dir: str = ".",
    out_dir: Optional[str] = None,
) -> List[str]:
    """Root-cause every gated makespan regression in ``reports``.

    For each regressed (app, config) group, picks the median-makespan
    baseline record and the trailing candidate (a fresh measurement when
    one exists, else the newest stored candidate), then runs the exact
    what-if profiler (:func:`repro.telemetry.whatif.explain`) and the
    trace differ over deterministic replays of both records.  Prints
    nothing itself; returns the text blocks to embed in the failure
    output.  Writes ``rootcause-<app>.json`` into ``out_dir`` (default:
    the history directory).
    """
    import json
    from pathlib import Path

    from repro.telemetry import diff as tdiff
    from repro.telemetry import whatif

    out_dir = out_dir or history_dir
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    blocks: List[str] = []
    for report in reports:
        worst: Dict[str, object] = {}
        for v in report.regressions:
            if v.metric != "makespan":
                continue
            prev = worst.get(v.app)
            if prev is None or abs(v.delta_pct) > abs(prev.delta_pct):  # type: ignore[union-attr]
                worst[v.app] = v
        for app, verdict in sorted(worst.items()):
            hist = history.BenchHistory.load_app(app, history_dir)
            key = verdict.config_key  # type: ignore[union-attr]
            base_recs = hist.baselines(key)
            cand_recs = ([r for r in fresh.get(app, ())
                          if r.config_key == key]
                         or hist.candidates(key))
            if not base_recs or not cand_recs:
                blocks.append(f"cannot explain {app} ({key}): missing "
                              f"baseline or candidate records")
                continue
            cand = cand_recs[-1]
            # Prefer the baseline of the candidate's own seed: same DAG,
            # same placement, so a probe that undoes a pure cost
            # regression recovers that baseline makespan bit-for-bit.
            same_seed = [r for r in base_recs if r.seed == cand.seed]
            if same_seed:
                base = same_seed[-1]
            else:
                base = sorted(base_recs,
                              key=lambda r: r.makespan)[len(base_recs) // 2]
            exp = whatif.explain(base, cand)
            # Deterministic replays reproduce both records bit-for-bit
            # while capturing full event traces, so the diff gets span
            # totals, rank budgets and byte splits -- not just the counts
            # the stored records carry.
            tel_a: List[object] = []
            tel_b: List[object] = []
            whatif.replay_record(base, telemetry_out=tel_a)
            whatif.replay_record(cand, telemetry_out=tel_b)
            bus_a = tel_a[0].bus if tel_a else None  # type: ignore[attr-defined]
            bus_b = tel_b[0].bus if tel_b else None  # type: ignore[attr-defined]
            if bus_a is not None and bus_b is not None:
                view_a = tdiff.RunView.from_bus(
                    bus_a, label=f"baseline {app} seed {base.seed}")
                view_b = tdiff.RunView.from_bus(
                    bus_b, label=f"candidate {app} seed {cand.seed}")
                view_a.counters = {k: float(x) for k, x in base.counters.items()}
                view_b.counters = {k: float(x) for k, x in cand.counters.items()}
                run_diff = tdiff.diff_runs(view_a, view_b)
            else:
                run_diff = tdiff.diff_records(base, cand)
            blocks.append(exp.format())
            json_path = Path(out_dir) / f"rootcause-{app}.json"
            with open(json_path, "w") as fh:
                json.dump({"schema": "repro.telemetry/rootcause-v1",
                           "explanation": exp.as_dict(),
                           "diff": run_diff.as_dict()},
                          fh, indent=1, sort_keys=True)
                fh.write("\n")
            blocks.append(f"wrote {json_path}")
    return blocks


def run_watchdog_cli(args: argparse.Namespace) -> int:
    """--record-history / --check-regressions / --update-baseline."""
    from repro.bench.parallel import CellFailureError

    overrides = _parse_slowdowns(args.slowdown) if args.slowdown else None
    fresh: Dict[str, List[history.BenchRecord]] = {}
    try:
        reports, written = history.run_watchdog(
            directory=args.history_dir,
            apps=args.apps,
            seeds=args.seeds,
            measure=not args.no_measure,
            record=args.record_history,
            update_baseline=args.update_baseline,
            thresholds={"makespan": args.threshold, "gflops": args.threshold}
            if args.threshold is not None else None,
            parallel=args.parallel,
            overrides=overrides,
            fresh_out=fresh,
        )
    except CellFailureError as e:
        # Failed cells must fail the sweep loudly -- a half-measured
        # matrix is not a baseline.
        print(f"FAILED: {e}", file=sys.stderr)
        return 1
    for report in reports:
        print(report.format())
        print()
    for path in written:
        print(f"wrote {path}")
    if args.check_regressions:
        bad = [v for r in reports for v in r.regressions]
        if bad:
            print(f"REGRESSION: {len(bad)} gated metric(s) regressed "
                  f"beyond threshold", file=sys.stderr)
            if args.explain:
                for block in explain_regressions(
                        reports, fresh, history_dir=args.history_dir,
                        out_dir=args.explain_out):
                    print(block)
            return 1
        print("no regressions against the stored baselines")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate a table/figure of the TTG paper on the "
        "simulator, or run the benchmark-history watchdog.",
    )
    parser.add_argument(
        "experiment", nargs="?", default=None,
        choices=["table1", *sorted(_FIGS), "all", "prune"],
        help="which experiment to run (omit when using the watchdog flags); "
        "'prune' compacts the history files",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=None,
        help="override the node-count range (fig6: the fixed node count)",
    )
    parser.add_argument(
        "--telemetry", metavar="COUNTERS.json", default=None,
        help="capture telemetry across every backend the experiment binds "
        "and write the merged counters JSON plus the replayable "
        "<stem>.trace.json Chrome trace and <stem>.jsonl event log",
    )
    wd = parser.add_argument_group("benchmark-history watchdog")
    wd.add_argument("--record-history", action="store_true",
                    help="run the seed-swept matrix and append the records "
                    "to the BENCH_<app>.json files")
    wd.add_argument("--check-regressions", action="store_true",
                    help="compare fresh + trailing records against the "
                    "stored baselines; exit 1 on regression")
    wd.add_argument("--update-baseline", action="store_true",
                    help="record the seed-swept matrix as the new baseline")
    wd.add_argument("--history-dir", default=".", metavar="DIR",
                    help="directory of the BENCH_<app>.json files (default .)")
    wd.add_argument("--apps", type=_parse_apps, default=["potrf", "fw"],
                    metavar="A,B", help="watchdog apps (default potrf,fw)")
    wd.add_argument("--seeds", type=_parse_seeds, default=[0, 1, 2],
                    metavar="0,1,2", help="seed sweep of the matrix")
    wd.add_argument("--no-measure", action="store_true",
                    help="skip fresh measurements; judge only the records "
                    "already stored after the baseline window")
    wd.add_argument("--threshold", type=float, default=None, metavar="FRAC",
                    help="relative regression tolerance (default 0.10)")
    wd.add_argument("--explain", action="store_true",
                    help="on a gated regression, auto-run the trace differ "
                    "and the deterministic what-if profiler against the "
                    "baseline window, print the root-cause block, and write "
                    "rootcause-<app>.json")
    wd.add_argument("--explain-out", default=None, metavar="DIR",
                    help="directory for the rootcause-<app>.json "
                    "reports (default --history-dir)")
    wd.add_argument("--slowdown", action="append", default=[],
                    metavar="TEMPLATE=FACTOR",
                    help="inject a synthetic FACTORx cost regression on "
                    "TEMPLATE into every measured cell (repeatable; the "
                    "end-to-end test hook for --explain)")
    wd.add_argument("--parallel", type=int, default=0, metavar="N",
                    help="fan the (app, seed) matrix cells out over N worker "
                    "processes (0 = inline)")
    wd.add_argument("--keep", type=int, default=50, metavar="N",
                    help="prune: non-baseline records to keep per config "
                    "group (default 50)")
    wd.add_argument("--drop-old-baselines", action="store_true",
                    help="prune: also drop baselines superseded by a newer "
                    "baseline sweep")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "prune":
        return run_prune(args)
    watchdog = args.record_history or args.check_regressions or args.update_baseline
    if args.experiment is None and not watchdog:
        parser.error("give an experiment, or one of --record-history / "
                     "--check-regressions / --update-baseline")
    if watchdog:
        return run_watchdog_cli(args)

    def run_all() -> None:
        if args.experiment in ("table1", "all"):
            run_table1()
        if args.experiment == "all":
            for name in sorted(_FIGS):
                run_figure(name, args.max_nodes)
        elif args.experiment != "table1":
            run_figure(args.experiment, args.max_nodes)

    if args.telemetry is None:
        run_all()
        return 0
    from repro.telemetry import capture

    with capture(events=True) as runs:
        run_all()
    written = write_telemetry_bundle(
        args.telemetry, runs, meta={"experiment": args.experiment}
    )
    print(f"\nwrote {written['counters']} ({len(runs)} backend run(s))")
    if "trace" in written:
        print(f"wrote {written['trace']} and {written['jsonl']} "
              f"(replay: python -m repro.telemetry report "
              f"{written['jsonl']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
