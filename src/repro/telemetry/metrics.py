"""Metrics registry: labelled counters, gauges and histograms.

Instruments are created lazily and cached by ``(name, labels)``, so hook
sites can call ``registry.counter("tasks", template="POTRF").inc()``
without setup.  Labels are coerced to strings (ranks arrive as ints);
a repeated look-up is one dict probe on the labels as passed, and only
the first one per call-site spelling sorts and stringifies them.
Rollups (:meth:`MetricsRegistry.rollup`) aggregate one instrument family
over a label key -- per-template, per-rank, per-edge, per-protocol --
which is how :class:`~repro.runtime.base.RunStats` breakdowns are
produced.

Hook sites on the per-task path skip even that probe: they keep a
:class:`Handles` per metric family and index it with the label value.

Histograms keep count/total/min/max plus power-of-two buckets of the
observed values, enough for queue-wait and task-time distributions
without storing samples.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

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


class Handles(dict):
    """Hook-site handles resolved once per label value.

    ``handles[value]`` is ``make(value)`` -- an instrument, a tuple of the
    instruments one event updates, or a record head (see
    :meth:`~repro.telemetry.events.EventBus.emit`) -- computed on first
    use and a plain dict hit after that, so a hook site pays no registry
    look-up and no keyword labels per event.  Resolving on first use, not
    up front, keeps the registry holding exactly the instruments the
    events touched.  The hooks bump such a counter's ``value`` directly
    (their counts and byte sizes are never negative), saving the ``inc``
    call.
    """

    __slots__ = ("make",)

    def __init__(self, make: Callable[[Any], Any]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, value: Any) -> Any:
        handle = self[value] = self.make(value)
        return handle


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

    def __len__(self) -> int:
        return len(self._metrics)
