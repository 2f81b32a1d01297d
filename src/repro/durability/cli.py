"""``python -m repro.durability``: inspect / validate / resume durable runs.

Subcommands::

    inspect DIR [RUN]          list durable runs, or one run's chain
    validate TARGET            validate a checkpoint file, run dir, or root
    resume DIR RUN             rebuild + resume a killed run (replay that
                               re-verifies every stored checkpoint)
    run                        run one benchmark cell with checkpoints on
    chaos                      like run, but with a fault plan armed
    parity                     kill-and-resume parity check (the CI smoke)

``validate`` exits 1 when any checkpoint is torn, corrupt, stale-schema
or chain-broken -- each problem names the schema version involved.
``parity`` is self-contained: it measures an uninterrupted control run,
crashes an identical checkpointed run mid-execution (a real ``SIGKILL``
in ``--kill-mode sigkill``, an in-process injected fault otherwise),
resumes it, and exits nonzero unless the resumed record is bit-for-bit
identical to the control.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional

from repro.durability import chaos
from repro.durability.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    CheckpointError,
    load_chain,
    list_runs,
    read_checkpoint,
    read_run_manifest,
    run_id_for,
)

#: Record fields that legitimately differ between two identical runs.
VOLATILE_RECORD_KEYS = ("host_seconds", "git_sha")


def _parse_params(pairs: List[str]) -> Dict[str, Any]:
    """``k=v`` measurement parameters; ints/floats coerced."""
    out: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --param {pair!r} (expected K=V)")
        key, _, raw = pair.partition("=")
        try:
            value: Any = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        out[key] = value
    return out


def _cell_spec(args: argparse.Namespace) -> Dict[str, Any]:
    return dict({"app": args.app, "seed": args.seed, "engine": "seq"},
                **_parse_params(args.param))


# --------------------------------------------------------------- inspect


def _chain_summary(root: str, run: str) -> Dict[str, Any]:
    report = load_chain(root, run)
    out: Dict[str, Any] = {
        "run": run, "checkpoints": len(report.checkpoints),
        "problems": list(report.problems), "files": len(report.files),
    }
    try:
        manifest = read_run_manifest(root, run)
        out["spec"] = manifest.get("spec", {})
        out["every"] = manifest.get("every")
    except CheckpointError as e:
        out["problems"].append(str(e))
    last = report.latest
    if last is not None:
        out["last"] = {"index": last.index, "events": last.events,
                       "sim": last.sim, "digest": last.state_digest[:12]}
    return out


def cmd_inspect(args: argparse.Namespace) -> int:
    root = args.dir
    runs = [args.run] if args.run else list_runs(root)
    summaries = [_chain_summary(root, run) for run in runs]
    if args.json:
        print(json.dumps({"schema": CHECKPOINT_SCHEMA,
                          "version": CHECKPOINT_VERSION,
                          "runs": summaries}, indent=1, sort_keys=True))
        return 0
    if not summaries:
        print(f"{root}: no durable runs")
        return 0
    for s in summaries:
        state = f"{s['checkpoints']} checkpoint(s)"
        if s["problems"]:
            state += f", {len(s['problems'])} problem(s)"
        print(f"{s['run']}: {state}")
        if "last" in s:
            last = s["last"]
            print(f"  last: #{last['index']} events={last['events']} "
                  f"sim={last['sim']:.6g} digest={last['digest']}")
        if args.run and "spec" in s:
            print(f"  spec: {json.dumps(s['spec'], sort_keys=True)} "
                  f"(every {s.get('every')})")
        for problem in s["problems"]:
            print(f"  problem: {problem}")
    return 0


# -------------------------------------------------------------- validate


def _validate_target(target: str) -> Dict[str, Any]:
    """Problems of one checkpoint file, run directory, or root directory."""
    result: Dict[str, Any] = {
        "target": target, "schema": CHECKPOINT_SCHEMA,
        "version": CHECKPOINT_VERSION, "problems": [], "checkpoints": 0,
    }
    if os.path.isfile(target):
        result["kind"] = "checkpoint"
        try:
            ckpt = read_checkpoint(target)
            result["checkpoints"] = 1
            result["run"] = ckpt.run_id
        except CheckpointError as e:
            result["problems"].append(str(e))
        return result
    entries = os.listdir(target) if os.path.isdir(target) else []
    if "run.json" in entries or any(e.endswith(".ckpt") for e in entries):
        result["kind"] = "run"
        root, run = os.path.split(os.path.abspath(target))
        summary = _chain_summary(root, run)
        result["checkpoints"] = summary["checkpoints"]
        result["problems"] = summary["problems"]
        return result
    result["kind"] = "root"
    runs = list_runs(target)
    if not runs and not os.path.isdir(target):
        result["problems"].append(f"{target}: no such file or directory")
    for run in runs:
        summary = _chain_summary(target, run)
        result["checkpoints"] += summary["checkpoints"]
        result["problems"].extend(summary["problems"])
    result["runs"] = len(runs)
    return result


def cmd_validate(args: argparse.Namespace) -> int:
    result = _validate_target(args.target)
    result["valid"] = not result["problems"]
    if args.json:
        print(json.dumps(result, indent=1, sort_keys=True))
    else:
        state = "valid" if result["valid"] else "INVALID"
        print(f"{args.target}: {state} {result['kind']} "
              f"(schema {CHECKPOINT_SCHEMA} v{CHECKPOINT_VERSION}, "
              f"{result['checkpoints']} intact checkpoint(s))")
        for problem in result["problems"]:
            print(f"  problem: {problem}")
    return 0 if result["valid"] else 1


# ---------------------------------------------------------------- resume


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.durability.runner import resume_run

    try:
        result = resume_run(args.dir, args.run, ledger_dir=args.ledger)
    except CheckpointError as e:
        print(f"resume failed: {e}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.as_dict(), indent=1, sort_keys=True))
        return 0
    for problem in result.problems:
        print(f"warning: {problem}", file=sys.stderr)
    rec = result.record
    print(f"resumed {result.run_id} from {result.resume_point or 'start'}: "
          f"verified {result.verified} stored checkpoint(s), wrote "
          f"{result.written} new")
    print(f"  makespan={rec.makespan:.6g}s tasks={rec.tasks_total}")
    return 0


# ------------------------------------------------------------- run/chaos


def _run_cell(spec: Dict[str, Any], directory: str, every: int) -> Any:
    from repro.bench.history import measure_cell

    return measure_cell(dict(spec, checkpoint_dir=directory,
                             checkpoint_every=every))


def cmd_run(args: argparse.Namespace) -> int:
    spec = _cell_spec(args)
    rec = _run_cell(spec, args.dir, args.every)
    print(f"{run_id_for(spec)}: makespan={rec.makespan:.6g}s "
          f"tasks={rec.tasks_total} (checkpoints in {args.dir})")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    spec = _cell_spec(args)
    plan = chaos.FaultPlan(kind=args.kind, site=args.site, nth=args.nth,
                           phase=args.phase, latch=args.latch)
    with chaos.inject(plan):
        try:
            _run_cell(spec, args.dir, args.every)
        except chaos.InjectedFault as e:
            # Exit code 42 marks "the fault fired" for harness scripts
            # (kind=kill never reaches here -- the process SIGKILLs).
            print(f"injected fault fired: {e}", file=sys.stderr)
            return 42
    print(f"{run_id_for(spec)}: fault did not fire (run completed)",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------- parity


def _record_core(record: Any) -> Dict[str, Any]:
    core = record.as_dict()
    for key in VOLATILE_RECORD_KEYS:
        core.pop(key, None)
    return core


def cmd_parity(args: argparse.Namespace) -> int:
    """Control run vs. killed-and-resumed run: must match bit-for-bit."""
    from repro.bench.history import measure_cell
    from repro.durability.runner import resume_run

    spec = _cell_spec(args)
    run_id = run_id_for(spec)
    print(f"parity[{run_id}]: measuring uninterrupted control run...")
    control = _record_core(measure_cell(dict(spec)))

    print(f"parity[{run_id}]: crashing a checkpointed run at "
          f"{args.site} #{args.nth} ({args.kill_mode})...")
    fired = True
    if args.kill_mode == "sigkill":
        cmd = [sys.executable, "-m", "repro.durability", "chaos",
               "--app", str(spec["app"]), "--seed", str(spec["seed"]),
               "--dir", args.dir,
               "--every", str(args.every), "--site", args.site,
               "--nth", str(args.nth), "--kind", "kill"]
        for pair in args.param:
            cmd += ["--param", pair]
        proc = subprocess.run(cmd)
        if proc.returncode != -signal.SIGKILL:
            print(f"parity[{run_id}]: chaos child exited "
                  f"{proc.returncode}, expected SIGKILL "
                  f"({-signal.SIGKILL})", file=sys.stderr)
            fired = proc.returncode == 42  # injected-fault fallback marker
            if proc.returncode not in (0, 42):
                return 2
    else:
        plan = chaos.FaultPlan(kind="exception", site=args.site,
                               nth=args.nth)
        with chaos.inject(plan):
            try:
                _run_cell(spec, args.dir, args.every)
                fired = False
            except chaos.InjectedFault:
                pass
    if not fired:
        print(f"parity[{run_id}]: warning: the fault never fired (run "
              f"completed); resume degenerates to re-verification",
              file=sys.stderr)

    print(f"parity[{run_id}]: resuming...")
    result = resume_run(args.dir, run_id)
    for problem in result.problems:
        print(f"warning: {problem}", file=sys.stderr)
    resumed = _record_core(result.record)
    if resumed != control:
        diff = sorted(k for k in set(resumed) | set(control)
                      if resumed.get(k) != control.get(k))
        print(f"parity[{run_id}]: MISMATCH in field(s) {diff}",
              file=sys.stderr)
        for key in diff:
            print(f"  control  {key} = {control.get(key)!r}",
                  file=sys.stderr)
            print(f"  resumed  {key} = {resumed.get(key)!r}",
                  file=sys.stderr)
        return 1
    if fired and result.verified < 1:
        print(f"parity[{run_id}]: no stored checkpoint was verified during "
              f"the resume -- the crash left no usable chain",
              file=sys.stderr)
        return 1
    print(f"parity[{run_id}]: OK -- resumed record identical to control "
          f"({result.verified} checkpoint(s) verified, {result.written} "
          f"written)")
    return 0


# ------------------------------------------------------------------ main


def _add_cell_flags(p: argparse.ArgumentParser, *,
                    require_dir: bool = True) -> None:
    p.add_argument("--app", default="mra",
                   help="benchmark app (default mra)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="measurement parameter override, e.g. "
                   "--param nfuncs=2 (repeatable)")
    p.add_argument("--dir", required=require_dir, metavar="DIR",
                   help="checkpoint directory")
    p.add_argument("--every", type=int, default=0, metavar="N",
                   help="checkpoint cadence in events (default 2048)")


def _add_fault_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--site", default="checkpoint",
                   choices=list(chaos.FAULT_SITES),
                   help="instrumented site the fault fires at")
    p.add_argument("--nth", type=int, default=2,
                   help="fire on the Nth matching poke (default 2)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.durability",
        description="Inspect, validate and resume crash-consistent "
        "checkpointed runs (see docs/durability.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="list durable runs / one run's chain")
    p.add_argument("dir", help="checkpoint directory")
    p.add_argument("run", nargs="?", default=None, help="run id (optional)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("validate",
                       help="validate a .ckpt file, run dir, or root")
    p.add_argument("target")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("resume", help="rebuild + resume a killed run, "
                       "re-verifying every stored checkpoint on the way")
    p.add_argument("dir", help="checkpoint directory")
    p.add_argument("run", help="run id, e.g. mra-seed0-seq")
    p.add_argument("--ledger", default=None, metavar="DIR",
                   help="also write a run ledger (header stamped with the "
                   "resume point)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser("run", help="run one benchmark cell with checkpoints")
    _add_cell_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("chaos",
                       help="run one cell with a fault plan armed")
    _add_cell_flags(p)
    _add_fault_flags(p)
    p.add_argument("--kind", default="exception",
                   choices=list(chaos.FAULT_KINDS),
                   help="what the fault does (kill = real SIGKILL)")
    p.add_argument("--phase", default=None,
                   help="for --site phase: which life-cycle phase")
    p.add_argument("--latch", default=None, metavar="PATH",
                   help="fire-once latch file (shared across processes)")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("parity",
                       help="kill-and-resume parity check (CI smoke)")
    _add_cell_flags(p)
    _add_fault_flags(p)
    p.add_argument("--kill-mode", default="exception",
                   choices=["exception", "sigkill"],
                   help="crash via in-process injected fault (default) or "
                   "a real SIGKILL in a child process")
    p.set_defaults(fn=cmd_parity)

    args = parser.parse_args(argv)
    return args.fn(args)
