"""Unified observability for the TTG reproduction (``repro.telemetry``).

The paper's whole evaluation depends on seeing inside the runtime -- task
rates, broadcast dedup savings, splitmd vs. eager volumes, priority-map
effects -- so this package provides the measurement substrate every layer
records into:

- :mod:`repro.telemetry.events` -- the low-overhead structured event bus
  (spans / instants / counters in per-rank ring buffers), the
  :class:`Telemetry` bundle backends carry, and the
  :func:`~repro.telemetry.events.capture` recorder.  ``Telemetry`` is the
  runtime's only observer surface, and its recording is the only one:
  every view below, and every count of a run, reads it.
- :mod:`repro.telemetry.export` -- the JSONL event log (the complete
  recording, eviction counts included) and its Chrome trace-event view
  (loads in Perfetto / chrome://tracing).
- :mod:`repro.telemetry.analyze` -- critical-path extraction over the
  recorded task/message DAG, per-template summaries, idle breakdowns,
  per-channel byte splits, and the text report.
- ``python -m repro.telemetry`` -- record / report / export / whatif
  CLI (:mod:`repro.telemetry.cli`).

Each question has one view: the timeline is ``export``'s Chrome trace
opened in Perfetto; per-template, per-rank, critical-path and byte
numbers are the text ``report``; what moved between two runs is the
diff of each side's ``report``.

Telemetry is off by default and adds only a ``None``-check per hook when
disabled.  Enable it per run::

    from repro.telemetry import Telemetry
    tel = Telemetry(nranks=4)
    backend = ParsecBackend(cluster, telemetry=tel)
    ...
    write_chrome_trace("trace.json", tel)
"""

from repro.telemetry.events import (
    CounterEvent,
    EventBus,
    InstantEvent,
    RecordedRun,
    SpanEvent,
    Telemetry,
    TID_AM,
    TID_PROTO,
    TID_RMA,
    TID_RT,
    TID_SAN,
    capture,
)
# Read by hostbench only (repro.telemetry.metrics says why it stays).
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.export import (
    read_jsonl,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.analyze import (
    CriticalPath,
    critical_path,
    idle_breakdown,
    summary_by_template,
)

__all__ = [
    "CounterEvent",
    "EventBus",
    "InstantEvent",
    "SpanEvent",
    "Telemetry",
    "TID_AM",
    "TID_PROTO",
    "TID_RMA",
    "TID_RT",
    "TID_SAN",
    "MetricsRegistry",
    "read_jsonl",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "CriticalPath",
    "critical_path",
    "idle_breakdown",
    "summary_by_template",
    "RecordedRun",
    "capture",
]
