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
    python -m repro.bench --record-history --engine sharded --parallel 4
    python -m repro.bench --record-history --ledger runs/ --live

Root-causing a failure (see ``docs/observability.md``): ``--explain``
auto-runs the trace differ and the deterministic what-if profiler against
the baseline window, prints the root-cause block under the failure, and
writes ``rootcause-<app>.json`` / ``.html`` (``--explain-out``).
``--slowdown TEMPLATE=FACTOR`` injects a synthetic cost regression through
the same :class:`repro.sim.cluster.CostOverrides` hook the profiler
probes with, so the whole pipeline is testable end to end:

    python -m repro.bench --check-regressions --explain
    python -m repro.bench --check-regressions --slowdown GEMM=2 --explain

Durable runs (crash-consistent checkpoints; see ``docs/durability.md``):

    python -m repro.bench --record-history --checkpoint-dir ckpts/
    python -m repro.bench --checkpoint-dir ckpts/ --resume mra-seed0-sharded

History lives in ``BENCH_<app>.json`` files (``--history-dir``, default the
current directory); see :mod:`repro.bench.history`.  The append-only files
are compacted with ``python -m repro.bench prune --keep 50``, and the event
engines are compared on host time with ``python -m repro.bench engine-bench``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.bench import figures, history
from repro.bench.harness import print_series, print_table, write_telemetry_bundle
from repro.bench.plot import print_chart
from repro.sim.sharded import ENGINE_KINDS

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


def _parse_engines(text: str) -> List[str]:
    return _parse_names(text, ENGINE_KINDS, "engine kind")


def _parse_apps(text: str) -> List[str]:
    return _parse_names(text, history.MEASUREMENTS, "app")


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


def run_engine_bench(args: argparse.Namespace) -> int:
    """``engine-bench``: host-time comparison of the event engines."""
    from repro.bench.parallel import engine_benchmark

    cell_kwargs = {} if args.nodes is None else {"nodes": args.nodes}
    results = engine_benchmark(
        engines=tuple(args.engines),
        app=args.apps[0],
        seeds=args.seeds,
        **cell_kwargs,
    )
    print(f"engine benchmark: app={args.apps[0]} seeds={args.seeds}")
    for kind, row in results.items():
        print(f"  {kind:<8} host={row['host_seconds']:8.3f}s  "
              f"makespan={row['makespan']:.6g}s  "
              f"speedup={row['speedup']:.2f}x")
    if args.output:
        import json

        with open(args.output, "w") as fh:
            json.dump({"app": args.apps[0], "seeds": list(args.seeds),
                       "engines": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0


def run_resume(args: argparse.Namespace) -> int:
    """``--resume RUN_ID``: rebuild and verify-replay a killed run."""
    from repro.durability import CheckpointError, resume_run

    try:
        result = resume_run(args.checkpoint_dir, args.resume,
                            ledger_dir=args.ledger, live=args.live)
    except CheckpointError as e:
        print(f"resume failed: {e}", file=sys.stderr)
        return 1
    for problem in result.problems:
        print(f"warning: {problem}", file=sys.stderr)
    rec = result.record
    print(f"resumed {result.run_id} from {result.resume_point or 'start'}: "
          f"verified {result.verified} stored checkpoint(s), wrote "
          f"{result.written} new")
    print(f"  makespan={rec.makespan:.6g}s gflops={rec.gflops:.6g} "
          f"tasks={rec.tasks_total}")
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
    output.  Writes ``rootcause-<app>.json`` and ``rootcause-<app>.html``
    into ``out_dir`` (default: the history directory).
    """
    import json
    from pathlib import Path

    from repro.telemetry import diff as tdiff
    from repro.telemetry import whatif
    from repro.telemetry.report_html import write_diff_report_html

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
            # totals, rank budgets, and both Gantt timelines -- not just
            # the counts the stored records carry.
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
                view_a.bytes_by_protocol = tdiff.protocol_bytes_of(bus_a)
                view_b.bytes_by_protocol = tdiff.protocol_bytes_of(bus_b)
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
            html_path = Path(out_dir) / f"rootcause-{app}.html"
            write_diff_report_html(
                str(html_path), run_diff, explanation=exp,
                bus_a=bus_a, bus_b=bus_b, histories=[hist],
                title=f"root cause: {app} ({key})",
            )
            blocks.append(f"wrote {json_path} and {html_path}")
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
            engine=args.engine,
            parallel=args.parallel,
            ledger_dir=args.ledger,
            live=args.live,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            overrides=overrides,
            fresh_out=fresh,
        )
    except CellFailureError as e:
        # Permanent cell failures (after their retry budget) must fail
        # the sweep loudly -- a half-measured matrix is not a baseline.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate a table/figure of the TTG paper on the "
        "simulator, or run the benchmark-history watchdog.",
    )
    parser.add_argument(
        "experiment", nargs="?", default=None,
        choices=["table1", *sorted(_FIGS), "all", "prune", "engine-bench"],
        help="which experiment to run (omit when using the watchdog flags); "
        "'prune' compacts the history files, 'engine-bench' compares the "
        "event engines on host time",
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
                    "rootcause-<app>.json/.html")
    wd.add_argument("--explain-out", default=None, metavar="DIR",
                    help="directory for the rootcause-<app>.json/.html "
                    "reports (default --history-dir)")
    wd.add_argument("--slowdown", action="append", default=[],
                    metavar="TEMPLATE=FACTOR",
                    help="inject a synthetic FACTORx cost regression on "
                    "TEMPLATE into every measured cell (repeatable; the "
                    "end-to-end test hook for --explain)")
    wd.add_argument("--engine", default="seq", choices=list(ENGINE_KINDS),
                    help="event engine inside each simulation (default seq)")
    wd.add_argument("--parallel", type=int, default=0, metavar="N",
                    help="fan the (app, seed) matrix cells out over N worker "
                    "processes (0 = inline)")
    wd.add_argument("--ledger", default=None, metavar="DIR",
                    help="write one append-only run ledger per matrix cell "
                    "into DIR (tail with: python -m repro.telemetry watch)")
    wd.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                    help="write crash-consistent checkpoints of every matrix "
                    "cell into DIR (resume a killed cell with --resume; see "
                    "python -m repro.durability)")
    wd.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                    help="checkpoint cadence in engine events "
                    "(default 2048)")
    wd.add_argument("--resume", default=None, metavar="RUN_ID",
                    help="resume the killed run RUN_ID from --checkpoint-dir "
                    "(e.g. mra-seed0-sharded); verifies every stored "
                    "checkpoint during the replay")
    wd.add_argument("--live", action="store_true",
                    help="stream a console progress dashboard while each "
                    "cell runs (implies in-process ledger records)")
    wd.add_argument("--keep", type=int, default=50, metavar="N",
                    help="prune: non-baseline records to keep per config "
                    "group (default 50)")
    wd.add_argument("--drop-old-baselines", action="store_true",
                    help="prune: also drop baselines superseded by a newer "
                    "baseline sweep")
    wd.add_argument("--engines", type=_parse_engines,
                    default=["seq", "sharded"], metavar="A,B",
                    help="engine-bench: engine kinds to compare "
                    "(default seq,sharded)")
    wd.add_argument("--output", default=None, metavar="OUT.json",
                    help="engine-bench: also write the comparison as JSON")
    wd.add_argument("--nodes", type=int, default=None, metavar="N",
                    help="engine-bench: simulated rank count per cell "
                    "(default: each app's own default, typically 4)")
    args = parser.parse_args(argv)

    if args.resume is not None:
        if args.checkpoint_dir is None:
            parser.error("--resume requires --checkpoint-dir")
        return run_resume(args)
    if args.experiment == "prune":
        return run_prune(args)
    if args.experiment == "engine-bench":
        return run_engine_bench(args)
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

    if args.ledger is not None or args.live:
        from repro.telemetry.ledger import ledger_capture

        with ledger_capture(args.ledger or ".", live=args.live,
                            prefix=args.experiment or "bench"):
            run_all()
        return 0

    if args.telemetry is not None:
        from repro.telemetry.adapter import capture

        with capture(events=True) as runs:
            run_all()
        written = write_telemetry_bundle(
            args.telemetry, runs, meta={"experiment": args.experiment}
        )
        print(f"\nwrote {written['counters']} ({len(runs)} backend run(s))")
        if "trace" in written:
            print(f"wrote {written['trace']} and {written['jsonl']} "
                  f"(replay: python -m repro.telemetry report-html "
                  f"{written['jsonl']} -o report.html)")
    else:
        run_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
