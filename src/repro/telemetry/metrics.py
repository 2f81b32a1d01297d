"""Metrics registry: labelled counters, gauges and histograms.

Instruments are created lazily and cached by ``(name, labels)``, so hook
sites can call ``registry.counter("tasks", template="POTRF").inc()``
without setup.  Labels are coerced to strings (ranks arrive as ints);
a repeated look-up is one dict probe on the labels as passed, and only
the first one per call-site spelling sorts and stringifies them.
Rollups (:meth:`MetricsRegistry.rollup`) aggregate one instrument family
over a label key -- per-template, per-rank, per-edge, per-protocol --
which is how :class:`~repro.runtime.base.RunStats` breakdowns and the
bench counters JSON are produced.

Histograms keep count/total/min/max plus power-of-two buckets of the
observed values, enough for queue-wait and task-time distributions
without storing samples.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, Any]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """Last-write-wins value."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}

    def merge(self, other: "Gauge") -> None:
        self.value = other.value


class Histogram:
    """Streaming distribution: count/total/min/max + log2 buckets.

    Bucket ``i`` counts observations in ``(2^(i-1), 2^i] * scale`` with
    ``scale = 1e-9`` so sub-nanosecond-to-seconds durations and 1-byte-to-
    gigabyte sizes both land in a sane bucket range.
    """

    kind = "histogram"
    __slots__ = ("count", "total", "vmin", "vmax", "buckets")

    _SCALE = 1e-9

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        scaled = value / self._SCALE
        b = 0 if scaled <= 1.0 else int(math.ceil(math.log2(scaled)))
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
        }

    def merge(self, other: "Histogram") -> None:
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        for b, n in other.buckets.items():
            self.buckets[b] = self.buckets.get(b, 0) + n


class MetricsRegistry:
    """Cache of labelled instruments, keyed by (name, sorted labels)."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelsKey], Any] = {}
        # Front cache: (class, name, raw label items in call order) -> the
        # instrument in ``_metrics`` (entries are never replaced, so it
        # cannot go stale).  Label values that compare equal must
        # stringify alike (ranks and names do; 1 and 1.0 would not).
        self._front: Dict[tuple, Any] = {}

    def _get(self, cls: type, name: str, labels: Dict[str, Any]) -> Any:
        front = (cls, name, *labels.items())
        m = self._front.get(front)
        if m is not None:
            return m
        key = (name, _labels_key(labels))
        m = self._metrics.get(key)
        if m is None:
            m = self._metrics[key] = cls()
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r}{dict(key[1])!r} already registered as "
                f"{type(m).__name__}, requested {cls.__name__}"
            )
        self._front[front] = m
        return m

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    # -------------------------------------------------------------- queries

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The instrument at exactly (name, labels), or None."""
        return self._metrics.get((name, _labels_key(labels)))

    def collect(self, name: Optional[str] = None) -> List[Tuple[str, Dict[str, str], Any]]:
        """``(name, labels, instrument)`` rows, name-sorted."""
        out = [
            (n, dict(lk), m)
            for (n, lk), m in self._metrics.items()
            if name is None or n == name
        ]
        out.sort(key=lambda row: (row[0], sorted(row[1].items())))
        return out

    def rollup(self, name: str, by: str) -> Dict[str, float]:
        """Sum one instrument family grouped by label ``by``.

        Counters/gauges contribute their value, histograms their total.
        Rows missing the ``by`` label are ignored.
        """
        out: Dict[str, float] = {}
        for _, labels, m in self.collect(name):
            group = labels.get(by)
            if group is None:
                continue
            value = m.total if isinstance(m, Histogram) else m.value
            out[group] = out.get(group, 0.0) + value
        return out

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready flat view: ``"name{k=v,...}" -> snapshot dict``."""
        out: Dict[str, Dict[str, Any]] = {}
        for name, labels, m in self.collect():
            label_s = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            key = f"{name}{{{label_s}}}" if label_s else name
            snap = m.snapshot()
            snap["kind"] = m.kind
            out[key] = snap
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s instruments into this registry (bench rollups)."""
        for (name, lk), m in other._metrics.items():
            mine = self._metrics.get((name, lk))
            if mine is None:
                self._metrics[(name, lk)] = mine = type(m)()
            mine.merge(m)

    # ------------------------------------------------------------- snapshot

    def dump_state(self) -> Dict[Tuple[str, LabelsKey], Tuple[str, dict]]:
        """Full instrument state for physical checkpoints (format v2)."""
        out: Dict[Tuple[str, LabelsKey], Tuple[str, dict]] = {}
        for key, m in self._metrics.items():
            if isinstance(m, Histogram):
                out[key] = ("histogram", {
                    "count": m.count, "total": m.total, "vmin": m.vmin,
                    "vmax": m.vmax, "buckets": dict(m.buckets),
                })
            else:
                out[key] = (m.kind, {"value": m.value})
        return out

    def load_state(self, state: Dict[Tuple[str, LabelsKey],
                                     Tuple[str, dict]]) -> None:
        """Restore instrument values *in place*: telemetry hook closures
        hold direct references to instruments created at attach time, so
        existing objects are mutated, never replaced."""
        classes = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        for key, (kind, data) in state.items():
            m = self._metrics.get(key)
            if m is None:
                m = self._metrics[key] = classes[kind]()
            if kind == "histogram":
                m.count = data["count"]
                m.total = data["total"]
                m.vmin = data["vmin"]
                m.vmax = data["vmax"]
                m.buckets = dict(data["buckets"])
            else:
                m.value = data["value"]

    def __len__(self) -> int:
        return len(self._metrics)
