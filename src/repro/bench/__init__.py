"""Benchmark harness regenerating every table and figure of the paper,
plus the persisted benchmark history whose committed records pin the
watchdog cells (:mod:`repro.bench.history`)."""

from repro.bench.harness import Series, print_table, print_series, geometric_nodes
from repro.bench.history import BenchHistory, BenchRecord, run_watchdog
from repro.bench.plot import ascii_chart, print_chart
from repro.bench import figures

__all__ = ["Series", "print_table", "print_series", "geometric_nodes",
           "ascii_chart", "print_chart", "figures",
           "BenchHistory", "BenchRecord", "run_watchdog"]
