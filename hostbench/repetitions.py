"""Running and verifying repetitions: the benchmark's notion of an operation."""

from __future__ import annotations

import gc
import json
import traceback
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

import profile_shares
import workloads as w


class Spans:
    """In-memory span log: name, enclosing span, start and end in seconds
    since ``origin``.  Written out once, when the run ends."""

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.records: List[Dict[str, Any]] = []
        self._open: List[str] = []

    def add(self, name: str, start: float, end: float) -> None:
        self.records.append({"name": name, "parent": self._open[-1] if self._open else None,
                             "start": start - self.origin, "end": end - self.origin})

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        start = perf_counter()
        self._open.append(name)
        try:
            yield
        finally:
            self._open.pop()
            self.add(name, start, perf_counter())

    def seconds(self, name: str) -> float:
        """Duration of the most recent span called ``name``."""
        last = [r for r in self.records if r["name"] == name][-1]
        return last["end"] - last["start"]


class Repetitions:
    """Runs and verifies repetitions of one workload, one operation each.

    A repetition fails if the driver raises, its result check fails, an
    engine reports a fallback, or its simulated statistics differ from the
    reference -- the ``expected.json`` entry when there is one, otherwise
    the first repetition.  Failed repetitions never contribute a timing.
    """

    def __init__(self, workload: w.Workload, inputs: Any,
                 expected: Optional[Dict[str, Any]], spans: Spans) -> None:
        self.workload = workload
        self.inputs = inputs
        self.spans = spans
        self.attempted = 0
        self.failures: List[str] = []
        #: simulated statistics every repetition must reproduce
        self.stats: Optional[Dict[str, Any]] = expected["stats"] if expected else None
        #: simulated tasks and events of one repetition
        self.work: Optional[Dict[str, int]] = expected["work"] if expected else None

    def run(self, traced: bool = False) -> Optional[Dict[str, Any]]:
        """One repetition; returns its measurements, or None if it failed.

        ``traced`` profiles the driver call and logs the executables it
        binds; such a repetition is never a timing sample.
        """
        self.attempted += 1
        gc.collect()
        try:
            with self.spans(f"repetition-{self.attempted}"):
                return self._run(traced)
        except Exception:  # a failed operation must not end the run
            self.failures.append(traceback.format_exc(limit=8))
            return None

    def _run(self, traced: bool) -> Dict[str, Any]:
        make_backend = self.workload.make_backend
        with self.spans("backend"):
            backend = make_backend() if make_backend else None
        call = lambda: self.workload.drive(self.inputs, backend)  # noqa: E731
        profile = None
        with self.spans("driver"), (w.ExecutableLog() if traced else nullcontext()) as log:
            t0 = perf_counter()
            if traced:
                result, profile = profile_shares.profile_call(call)
            else:
                result = call()
            host = perf_counter() - t0
        with self.spans("verify"):
            self.workload.check(self.inputs, result)
            backends = log.backends() if traced else [backend] if backend else []
            self._verify(self.workload.stats(result, backend), backends)
        return {"host_s": host, "profile": profile,
                "figure_s": getattr(result, "seconds", {})}

    def _verify(self, stats: Dict[str, Any], backends: List[Any]) -> None:
        reasons = w.fallback_reasons(backends)
        w.require(not reasons, f"engine fell back: {reasons}")
        if self.stats is None:
            self.stats = stats
        w.require(stats == self.stats,
                  f"simulated statistics {w.digest(stats)} differ from the "
                  f"reference {w.digest(self.stats)}")
        if backends:
            work = w.work_done(backends)
            if self.work is None:
                self.work = work
            w.require(work == self.work,
                      f"simulated work {work} differs from the reference {self.work}")


def expected_entry(path: str, quick: bool, workload: str, seed: int) -> Optional[Dict[str, Any]]:
    """The committed statistics for this cell, if any ("any" = every seed)."""
    with open(path) as f:
        table = json.load(f)
    by_seed = table.get("quick" if quick else "full", {}).get(workload, {})
    return by_seed.get(str(seed), by_seed.get("any"))
