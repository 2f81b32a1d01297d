"""Benchmark harness regenerating every table and figure of the paper,
plus the persisted benchmark history and the pinned watchdog cells
(:mod:`repro.bench.history`)."""

from repro.bench.harness import Series, print_table, print_series, geometric_nodes
from repro.bench.history import (
    PINS,
    BenchHistory,
    BenchRecord,
    PinCheck,
    record_digest,
    run_watchdog,
)
from repro.bench.plot import ascii_chart, print_chart
from repro.bench import figures

__all__ = ["Series", "print_table", "print_series", "geometric_nodes",
           "ascii_chart", "print_chart", "figures",
           "BenchHistory", "BenchRecord", "PINS", "PinCheck",
           "record_digest", "run_watchdog"]
