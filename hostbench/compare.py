#!/usr/bin/env python3
"""Compare two hostbench records, or check the benchmark against itself.

    python3 hostbench/compare.py A.json B.json
    python3 hostbench/compare.py --self-check [--seed 0]

For every workload and end-to-end metric: both values, the ratio B/A (A is
the base), the metric's bound from BENCHMARK.json and a verdict:

- ``worse`` / ``better``: B is beyond the bound on that side of A;
- ``same``: within the bound;
- ``unresolved``: either side's quartile spread is wider than the bound and
  the two sides' samples interleave, so the runs cannot tell.

``--self-check`` runs the whole benchmark twice on one commit and exits
non-zero unless every verdict is ``same``, no operation failed and both
runs saw identical simulated statistics.  It is how the bounds were chosen.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import run


def relative_spread(metric: Dict[str, Any]) -> float:
    """Distance between the quartiles as a share of the median."""
    samples = metric["samples"]
    if len(samples) < 2:
        return 0.0
    q = statistics.quantiles(samples, n=4)
    return (q[2] - q[0]) / statistics.median(samples)


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    ratio = b["value"] / a["value"]
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    interleave = (min(b["samples"]) <= max(a["samples"])
                  and min(a["samples"]) <= max(b["samples"]))
    if max(relative_spread(a), relative_spread(b)) > bound and interleave:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric present in both records."""
    rows = []
    for metric in run.load_contract()["end_to_end"]:
        for workload in a["workloads"]:
            if workload not in b["workloads"]:
                continue
            ma = a["workloads"][workload]["timed"]["metrics"][metric["name"]]
            mb = b["workloads"][workload]["timed"]["metrics"][metric["name"]]
            rows.append({
                "workload": workload, "metric": metric["name"],
                "a": ma["value"], "b": mb["value"], "ratio_b_over_a": mb["value"] / ma["value"],
                "bound": metric["bound"],
                "verdict": verdict(ma, mb, metric["better"], metric["bound"]),
            })
    return rows


def print_rows(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':22s} {'metric':12s} {'A (base)':>14s} {'B':>14s} {'B/A':>8s} "
          f"{'bound':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:22s} {r['metric']:12s} {r['a']:14.4f} {r['b']:14.4f} "
              f"{r['ratio_b_over_a']:8.4f} {r['bound']:6.2f}  {r['verdict']}")


def failed_operations(record: Dict[str, Any]) -> int:
    return sum(w["timed"]["failed"] for w in record["workloads"].values())


def self_check(args: argparse.Namespace) -> int:
    records = []
    for i in (1, 2):
        argv = ["--seed", str(args.seed), "--out", str(Path(args.out) / f"self-check-{i}")]
        argv += ["--seconds", str(args.seconds)] if args.seconds else []
        argv += ["--quick"] if args.quick else []
        try:
            records.append(run.run_benchmark(run.parse_args(argv)))
        except run.BenchmarkError as e:
            print(f"hostbench: {e}", file=sys.stderr)
            return 1
    first, second = records
    rows = compare(first, second)
    print_rows(rows)
    problems = [f"{r['workload']} {r['metric']}: {r['verdict']}"
                for r in rows if r["verdict"] != "same"]
    failed = failed_operations(first) + failed_operations(second)
    if failed:
        problems.append(f"{failed} failed operations")
    for workload, entry in first["workloads"].items():
        if entry["timed"]["stats"] != second["workloads"][workload]["timed"]["stats"]:
            problems.append(f"{workload}: simulated statistics differ between the runs")
    for p in problems:
        print("SELF-CHECK:", p, file=sys.stderr)
    print("self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("records", nargs="*", metavar="RECORD.json")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=str(run.HERE / "out"))
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check(args)
    if len(args.records) != 2:
        parser.error("give two records, or --self-check")
    a, b = (json.loads(Path(p).read_text()) for p in args.records)
    rows = compare(a, b)
    print_rows(rows)
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
