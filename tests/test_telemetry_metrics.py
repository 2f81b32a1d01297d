"""Metrics registry: instrument caching and labels, and the names the host
benchmark (``hostbench/``) uses from ``repro``."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry

ROOT = Path(__file__).resolve().parent.parent


def test_counter_inc_and_negative_rejected():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_instruments_cached_by_name_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("tasks", template="POTRF")
    b = reg.counter("tasks", template="POTRF")
    c = reg.counter("tasks", template="TRSM")
    assert a is b and a is not c
    # Label order is irrelevant; values coerce to strings.
    assert reg.counter("m", rank=1, device="cpu") is reg.counter(
        "m", device="cpu", rank="1"
    )


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_histogram_stats_and_buckets():
    h = Histogram()
    for v in (1e-6, 2e-6, 3e-6):
        h.observe(v)
    assert h.count == 3
    assert h.total == pytest.approx(6e-6)
    assert h.vmin == pytest.approx(1e-6)
    assert h.vmax == pytest.approx(3e-6)
    assert sum(h.buckets.values()) == 3


#: Imports hostbench's three entry modules and drives the registry the way
#: its per-layer metrics do.
_HOSTBENCH_SCRIPT = """
import sys
sys.path[:0] = [{hostbench!r}, {src!r}]
import layers, workloads, worker
from repro.telemetry import Telemetry

tel = Telemetry(nranks=2, events=False)
assert not tel.bus.recording
for kind in ("counter", "histogram"):
    n, run = layers.metric_observations(kind, 10)
    run()
print("ok")
"""


def test_hostbench_names_resolve():
    """Every name the host benchmark imports from ``repro`` still exists,
    so a simplification that breaks the benchmark fails here too."""
    script = _HOSTBENCH_SCRIPT.format(hostbench=str(ROOT / "hostbench"),
                                      src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
