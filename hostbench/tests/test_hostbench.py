"""Tests of the benchmark itself, at the ``--quick`` scale (tiny cells, same
code paths).  Not part of tier-1: run with ``pytest hostbench/tests``."""

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def hostbench(*argv, check=True):
    """Run ``run.py --quick``; returns (exit code, parsed last line, stderr)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0.2", *map(str, argv)],
        capture_output=True, text=True, cwd=ROOT)
    if check:
        assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc.returncode, json.loads(last) if last.startswith("{") else None, proc.stderr


@pytest.fixture(scope="module")
def timed_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("timed")
    hostbench("--seed", 0, "--out", out)
    return json.loads((out / "run-all-seed0-trace0.json").read_text())


def test_contract_names_and_counts():
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s").items()


def test_every_workload_reports_every_end_to_end_metric(timed_record):
    assert timed_record["hygiene"]["nproc"] >= 1
    assert list(timed_record["workloads"]) == WORKLOADS
    for name, entry in timed_record["workloads"].items():
        timed = entry["timed"]
        assert timed["failed"] == 0, timed["failures"]
        assert timed["attempted"] >= 1
        assert "loadavg_1min_start" in entry and "loadavg_1min_end" in entry
        for m in CONTRACT["end_to_end"]:
            got = timed["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0, (name, m["name"])


def test_single_workload_prints_the_contract_line(tmp_path):
    _, line, _ = hostbench("--workload", "bspmm-stream", "--seed", 3, "--trace", 0,
                           "--out", tmp_path)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


def test_trace_run_reports_every_layer_metric_and_shares_sum_to_one(tmp_path):
    _, line, _ = hostbench("--workload", "mra-tree", "--seed", 0, "--trace", 1, "--out", tmp_path)
    assert line["correct"] is True
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    units = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in line["metrics"].items())
    shares = [v["value"] for k, v in line["metrics"].items() if k.startswith("trace.share.")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert line["metrics"]["trace.overhead"]["value"] > 1.0
    trace = json.loads((tmp_path / "trace-mra-tree.json").read_text())
    names = {s["name"] for s in trace["spans"]}
    assert {"import", "inputs", "backend", "driver", "verify", "fence"} <= names


def test_wrong_expectation_is_a_failed_operation_not_a_timing(tmp_path):
    table = json.loads((HERE / "expected.json").read_text())
    table["quick"]["potrf-dense"]["0"]["stats"]["tasks_executed"] += 1
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(table))
    code, line, stderr = hostbench("--workload", "potrf-dense", "--seed", 0, "--trace", 0,
                                   "--expected", wrong, "--out", tmp_path, check=False)
    # every repetition fails, so there is no timing to report at all
    assert code != 0 and line is None
    assert "differ from the reference" in stderr


def test_fallback_reason_is_a_failed_operation(monkeypatch):
    from repetitions import Repetitions, Spans
    from repro.sim import Engine
    from workloads import WORKLOADS as registry

    workload = registry["potrf-dense"]
    reps = Repetitions(workload, workload.make_inputs(0, True), None, Spans(0.0))
    assert reps.run() is not None and not reps.failures
    monkeypatch.setattr(Engine, "mp_fallback_reason", "forced by the test", raising=False)
    assert reps.run() is None
    assert reps.attempted == 2 and "forced by the test" in reps.failures[0]


def test_refuses_other_scales(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "large")
    code, line, stderr = hostbench("--workload", "potrf-dense", "--out", tmp_path, check=False)
    assert code != 0 and line is None and "REPRO_BENCH_SCALE" in stderr


def metric(*samples):
    return {"value": statistics.median(samples), "samples": list(samples)}


@pytest.mark.parametrize("a, b, better, want", [
    (metric(1.00, 1.01, 0.99), metric(1.02, 1.01, 1.03), "lower", "same"),
    (metric(1.00, 1.01, 0.99), metric(1.20, 1.21, 1.19), "lower", "worse"),
    (metric(1.00, 1.01, 0.99), metric(0.80, 0.81, 0.79), "lower", "better"),
    (metric(100, 101, 99), metric(80, 81, 79), "higher", "worse"),
    (metric(100, 101, 99), metric(125, 126, 124), "higher", "better"),
    # noisy and interleaved: the runs cannot tell
    (metric(1.0, 1.4, 0.7, 1.2), metric(1.3, 0.8, 1.5, 1.1), "lower", "unresolved"),
    # noisy but every B beats every A: resolved
    (metric(1.0, 1.4, 1.2, 1.6), metric(0.5, 0.7, 0.6, 0.8), "lower", "better"),
])
def test_compare_verdicts(a, b, better, want):
    assert compare.verdict(a, b, better, bound=0.1) == want
