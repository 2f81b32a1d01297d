"""One workload in one fresh process: set-up, timed repetitions, or a trace.

run.py starts this file as a subprocess, so that ``setup_s`` and
``peak_rss_mb`` are those of a process that did nothing else.  Protocol on
standard output: the line ``ready`` once set-up is over (imports, inputs,
one untimed warm-up repetition), then one JSON object as the last line.

``--mode timed`` repeats the workload for ``--seconds`` (at least once)
with nothing watching.  ``--mode trace`` runs one plain and one profiled
repetition plus the per-layer micro-benchmarks; no end-to-end number ever
comes from it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

PROCESS_START = perf_counter()


def trace_metrics(reps: Any, plain: Dict[str, Any], traced: Dict[str, Any],
                  seed: int, quick: bool) -> Dict[str, Any]:
    """The per-layer metrics of a trace run, and the spans behind them."""
    import layers
    import profile_shares
    from workloads import FIGURES

    spans = reps.spans
    share = profile_shares.shares(traced["profile"])
    phases = profile_shares.phase_seconds(traced["profile"])
    metrics, layer_attempted, layer_failures = layers.run_layers(seed, quick)
    reps.attempted += layer_attempted
    reps.failures += layer_failures
    metrics.update({f"trace.share.{m}": v for m, v in share.items()})
    metrics.update({f"trace.phase_s.{p}": v for p, v in phases.items()})
    # backend / driver / verify: those of the traced repetition, the last run
    metrics.update({f"trace.span_s.{n}": spans.seconds(n)
                    for n in ("import", "inputs", "backend", "driver", "verify")})
    metrics["trace.overhead"] = traced["host_s"] / plain["host_s"]
    metrics["core.build_bind_s"] = phases["build"] + phases["executable"]
    metrics["apps.body_share"] = share["apps"] + share["linalg"]
    metrics["sim.events_per_task"] = reps.work["events"] / reps.work["tasks"]
    for name in FIGURES:
        metrics[f"bench.figure_s.{name}"] = plain["figure_s"].get(name, 0.0)
    phase_spans = [{"name": p, "parent": "driver", "seconds": v} for p, v in phases.items()]
    return {"layer_metrics": metrics, "spans": spans.records + phase_spans}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "trace"), required=True)
    parser.add_argument("--expected", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    from repetitions import Repetitions, Spans, expected_entry
    from workloads import WORKLOADS

    spans = Spans(PROCESS_START)
    spans.add("import", PROCESS_START, perf_counter())
    workload = WORKLOADS[args.workload]
    with spans("inputs"):
        inputs = workload.make_inputs(args.seed, args.quick)
    reps = Repetitions(workload, inputs,
                       expected_entry(args.expected, args.quick, args.workload, args.seed), spans)
    if workload.make_backend is not None:  # a figure pass is too long to warm up with
        with spans("warmup"):
            reps.run()
    print("ready", flush=True)

    report: Dict[str, Any] = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    if args.mode == "timed":
        samples = []
        deadline = perf_counter() + args.seconds
        while True:
            rep = reps.run()
            if rep is not None:
                samples.append(rep["host_s"])
            if perf_counter() >= deadline:
                break
        report["host_s"] = samples
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        plain, traced = reps.run(), reps.run(traced=True)
        if plain is not None and traced is not None:
            report.update(trace_metrics(reps, plain, traced, args.seed, args.quick))
    report.update(attempted=reps.attempted, failed=len(reps.failures), failures=reps.failures,
                  stats=reps.stats, work=reps.work)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
