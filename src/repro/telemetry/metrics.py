"""Labelled counters and histograms, kept for the host benchmark.

No run path records into these: a run's numbers are read from its event
log and from ``RunStats``.  ``hostbench/layers.py`` still times a
labelled look-up plus one observation (``telemetry.counter_obs_per_s``
and ``telemetry.histogram_obs_per_s``); this module goes with those
metrics and ``telemetry.metrics_only_tax`` (ROADMAP, the ``benchmark``
item).

Instruments are created lazily and cached by ``(name, labels)``.  Labels
are coerced to strings (ranks arrive as ints); a repeated look-up is one
dict probe on the labels as passed, and only the first one per call-site
spelling sorts and stringifies them.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, Any]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Histogram:
    """Streaming distribution: count/total/min/max + log2 buckets.

    Bucket ``i`` counts observations in ``(2^(i-1), 2^i] * scale`` with
    ``scale = 1e-9`` so sub-nanosecond-to-seconds durations and 1-byte-to-
    gigabyte sizes both land in a sane bucket range.
    """

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

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)
