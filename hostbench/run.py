#!/usr/bin/env python3
"""hostbench: host-time benchmark of the TTG simulator, end to end and per layer.

    python3 hostbench/run.py --seed 0                 all five workloads, timed
    python3 hostbench/run.py --seed 0 --trace         ... plus the per-layer run
    python3 hostbench/run.py --workload mra-tree --seed 3 --seconds 10 --trace 0

It is a closed loop with one client: each repetition starts when the
previous one has returned.  Every workload runs in fresh single-threaded
subprocesses (worker.py), one at a time.  Every metric is printed by name
with its unit, outputs are verified, results go to ``hostbench/out/`` and
the last line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes per timed run; ``setup_s`` is the median of their set-ups.
SETUP_PROCESSES = 3
WORKER_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def child_env() -> Dict[str, str]:
    """Pinned BLAS threads, fixed hashing, small scale, no history writes."""
    env = dict(os.environ)
    env.update({pin: "1" for pin in THREAD_PINS})
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_BENCH_SCALE"] = "small"
    env.pop("REPRO_BENCH_HISTORY_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in (os.environ.get("PYTHONPATH"),) if p])
    return env


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def hygiene() -> Dict[str, Any]:
    """What a reader needs to judge how noisy this machine was."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_thread_pins": {pin: "1" for pin in THREAD_PINS},
        "git_sha": git_sha(),
        "loop": "closed, one client",
    }


def run_worker(args: argparse.Namespace, workload: str, mode: str,
               seconds: float) -> Tuple[float, Dict[str, Any]]:
    """One worker process; returns (seconds from spawn to ready, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--expected", str(args.expected)] + (["--quick"] if args.quick else [])
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT, start_new_session=True)
    # Killing the session also ends whatever the worker itself started.
    watchdog = threading.Timer(WORKER_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: worker failed (exit {proc.returncode})")
    return setup_s, json.loads(lines[-1])


def quartiles(samples: List[float]) -> Optional[List[float]]:
    return statistics.quantiles(samples, n=4) if len(samples) >= 2 else None


def metric(value: float, unit: str, samples: List[float]) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "samples": samples,
            "median": statistics.median(samples), "quartiles": quartiles(samples)}


def run_timed(args: argparse.Namespace, workload: str) -> Dict[str, Any]:
    """The end-to-end metrics of one workload, nothing watching.

    ``--seconds`` is split over ``SETUP_PROCESSES`` fresh processes run one
    after the other; ``setup_s`` and ``peak_rss_mb`` are medians over them.
    ``host_s`` is the *fastest* of the pooled repetitions, not their median:
    on a shared machine interference only ever slows a repetition down and
    comes in bursts that outlast a whole run, and over ten runs the fastest
    repetition was about twice as steady as the median (README.md).  The
    median, the quartiles and every sample are kept in the record.
    """
    runs = [run_worker(args, workload, "timed", args.seconds / SETUP_PROCESSES)
            for _ in range(SETUP_PROCESSES)]
    setups = [setup for setup, _ in runs]
    reports = [report for _, report in runs]
    failures = [f for r in reports for f in r["failures"]]
    # Agreement between the processes is one more operation that can fail.
    attempted = sum(r["attempted"] for r in reports) + 1
    if any(r["stats"] != reports[0]["stats"] for r in reports):
        failures.append("processes disagree on the simulated statistics")
    host = [h for r in reports for h in r["host_s"]]
    work = reports[0]["work"]
    if not host or work is None:
        raise BenchmarkError(f"{workload}: no repetition succeeded, or expected.json has no "
                             "task count for it:\n" + "\n".join(failures))
    host_s = min(host)
    rss = [r["peak_rss_mb"] for r in reports]
    return {
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "stats": reports[0]["stats"], "work": work,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s", setups),
            "host_s": metric(host_s, "s", host),
            "tasks_per_s": metric(work["tasks"] / host_s, "tasks/s",
                                  [work["tasks"] / h for h in host]),
            "peak_rss_mb": metric(statistics.median(rss), "MiB", rss),
        },
    }


def run_trace(args: argparse.Namespace, workload: str, units: Dict[str, str]) -> Dict[str, Any]:
    """The per-layer metrics of one workload, from one profiled process."""
    _, report = run_worker(args, workload, "trace", 0.0)
    if "layer_metrics" not in report:
        raise BenchmarkError(f"{workload}: traced repetition failed:\n"
                             + "\n".join(report["failures"]))
    values = report["layer_metrics"]
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchmarkError(f"{workload}: per-layer metrics not measured: {missing}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"trace-{workload}.json", "w") as f:
        json.dump({"workload": workload, "seed": args.seed, "spans": report["spans"],
                   "shares": {k: v for k, v in values.items() if k.startswith("trace.share.")},
                   "layer_metrics": values}, f, indent=1)
    return {
        "attempted": report["attempted"], "failed": report["failed"],
        "failures": report["failures"], "stats": report["stats"], "work": report["work"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def result_line(result: Dict[str, Any]) -> str:
    """The one-object summary the benchmark contract asks for."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    })


def print_metrics(workload: str, result: Dict[str, Any]) -> None:
    print(f"== {workload}: {result['attempted']} operations, {result['failed']} failed")
    for failure in result["failures"]:
        print("FAILED OPERATION:\n" + failure, file=sys.stderr)
    for name, m in result["metrics"].items():
        note = f"(from {len(m['samples'])} samples)" if "samples" in m else ""
        print(f"{name:44s} {m['value']:16.6f} {m['unit']:8s} {note}")


def run_benchmark(args: argparse.Namespace) -> Dict[str, Any]:
    """Run the selected workloads; returns (and saves) the full record."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if scale != "small":
        raise BenchmarkError("only the small scale is measured; REPRO_BENCH_SCALE="
                             f"{scale!r} is set. Unset it.")
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(f"no simulator to measure under {ROOT / 'src'}")
    contract = load_contract()
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    record: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds, "quick": args.quick,
                              "hygiene": hygiene(), "workloads": {}}
    for name in names:
        entry: Dict[str, Any] = {"loadavg_1min_start": os.getloadavg()[0]}
        if args.trace in ("0", "both"):
            entry["timed"] = run_timed(args, name)
            print_metrics(name, entry["timed"])
        if args.trace in ("1", "both"):
            entry["traced"] = run_trace(args, name, layer_units)
            print_metrics(name, entry["traced"])
        entry["loadavg_1min_end"] = os.getloadavg()[0]
        record["workloads"][name] = entry
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = args.workload or "all"
    record["path"] = str(out_dir / f"run-{tag}-seed{args.seed}-trace{args.trace}.json")
    with open(record["path"], "w") as f:
        json.dump(record, f, indent=1)
    return record


def write_expected(path: str, args: argparse.Namespace, record: Dict[str, Any]) -> None:
    """Store this run's simulated statistics as the expectation for its seed."""
    with open(path) as f:
        table = json.load(f)
    scale = table.setdefault("quick" if args.quick else "full", {})
    for name, entry in record["workloads"].items():
        seed_key = "any" if name == "figure-sweep" else str(args.seed)
        scale.setdefault(name, {})[seed_key] = {
            "work": entry["traced"]["work"], "stats": entry["traced"]["stats"]}
    with open(path, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]],
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="how long the timed repetitions of a workload run")
    parser.add_argument("--trace", nargs="?", choices=("0", "1", "both"), default="0",
                        const="both", help="0: end-to-end metrics; 1: per-layer metrics; "
                        "no value: both")
    parser.add_argument("--quick", action="store_true",
                        help="tiny cells, same code paths (for hostbench/tests)")
    parser.add_argument("--expected", default=str(HERE / "expected.json"))
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--write-expected", action="store_true",
                        help="record this seed's simulated statistics (implies --trace 1)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    target = args.expected
    if args.write_expected:
        # Measure against no expectation at all, then record what was seen.
        args.trace = "1"
        args.expected = str(Path(args.out) / "no-expectations.json")
        Path(args.out).mkdir(parents=True, exist_ok=True)
        Path(args.expected).write_text("{}")
    try:
        record = run_benchmark(args)
    except BenchmarkError as e:
        print(f"hostbench: {e}", file=sys.stderr)
        return 1
    if args.write_expected:
        write_expected(target, args, record)
    print(f"full record: {record['path']}")
    if args.workload:
        entry = record["workloads"][args.workload]
        print(result_line(entry["traced" if args.trace == "1" else "timed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
