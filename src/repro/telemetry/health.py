"""Sharded-engine health profiler: per-window vitals of the rank-sharded
event executor.

The sharded engine (:mod:`repro.sim.sharded`) advances through
conservative time windows, and everything interesting about its behaviour
-- whether the lookahead is wide enough to batch well, whether one rank's
shard dominates a window, how deep the shard heaps run, how far apart the
rank frontiers drift -- is per-window state that previously evaporated
the moment the window closed.  This profiler hangs off the engine's
``on_window`` hook and turns each completed window into durable records:

- a ``window`` record in the run ledger (when one is attached), carrying
  width, lookahead, batch size, executed-event count, per-shard event
  split, post-window heap depths, and the clock-skew gauge;
- a mirrored instant on the telemetry bus (cat ``"engine"``, lane
  :data:`~repro.telemetry.events.TID_ENG`), so the health data survives
  the chrome-trace JSONL round trip and the HTML report can render the
  window-width timeline and per-rank imbalance without ever seeing the
  ledger;
- a quiescence timeline: per window the profiler samples the termination
  detector's per-rank ledger (armed for sharded runs by
  :class:`~repro.runtime.base.Backend`) and emits a ``quiescence`` record
  whenever the number of quiescent ranks changes -- the rank-by-rank
  drain-down of the computation.

Attribution helpers (:func:`imbalance`, :func:`attribute_stall`) reduce a
window stream to the questions the assessment actually asks: which rank
is the straggler, and is a stall scheduling starvation (empty shards) or
conservative-window overhead (work exists but sits beyond the fence)?

Everything here is pull-based off the engine hook: the profiler schedules
nothing, reads only ``engine.now`` and already-maintained counters, and
therefore never perturbs virtual time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.telemetry.events import TID_ENG

#: Keep at most this many per-window bus instants; beyond it, keep every
#: k-th window.  Long runs execute hundreds of thousands of windows and
#: the bus rings would otherwise hold nothing but engine records.
_MAX_BUS_WINDOWS = 4096


def imbalance(events_by_shard: List[int]) -> float:
    """Max-over-mean event imbalance of one window (1.0 = perfectly even).

    The standard load-imbalance factor: 4.0 means the busiest rank did 4x
    the mean work, i.e. the window was effectively serialized on it.
    """
    if not events_by_shard:
        return 1.0
    total = sum(events_by_shard)
    if total == 0:
        return 1.0
    mean = total / len(events_by_shard)
    return max(events_by_shard) / mean


def attribute_stall(window: Dict[str, Any]) -> Optional[str]:
    """Classify a suspicious window, or ``None`` for a healthy one.

    - ``"starved"``: almost nothing executed and the shard heaps are
      near-empty too -- the run is genuinely out of ready work (tail of
      the computation, or a dependency chain).
    - ``"fence-bound"``: the window executed little but substantial work
      sits queued beyond the fence -- the conservative window is cutting
      batches too fine (lookahead too small for this workload's event
      spacing).
    - ``"imbalanced"``: plenty executed, but one shard did essentially
      all of it.
    """
    executed = int(window.get("executed", 0))
    queued = sum(window.get("heap_depths", ()))
    if executed <= 2:
        return "starved" if queued <= 2 * max(executed, 1) else "fence-bound"
    shards = window.get("events_by_shard", [])
    # imbalance() tops out at nshards (all events on one shard); >90% of
    # that ceiling means the window was effectively serial.
    if len(shards) > 1 and imbalance(shards) > 0.9 * len(shards):
        return "imbalanced"
    return None


class ShardHealthProfiler:
    """Bridges ``ShardedEngine.on_window`` to ledger + telemetry bus.

    Parameters
    ----------
    backend:
        The backend whose engine is profiled.  Its ``ledger`` (if any)
        receives ``window``/``quiescence`` records; its ``telemetry``
        (if any) receives mirrored ``cat="engine"`` instants; its
        ``termination`` detector supplies the quiescence timeline.
    """

    def __init__(self, backend: Any) -> None:
        self.backend = backend
        self.windows_seen = 0
        self.stalls: Dict[str, int] = {}
        self._last_quiescent = -1
        self._bus_kept = 0

    def attach(self) -> None:
        """Install on the backend's engine (idempotent; no-op for the
        sequential engine, which has no windows to profile)."""
        engine = self.backend.engine
        if hasattr(engine, "on_window"):
            engine.on_window = self.on_window

    def detach(self) -> None:
        engine = self.backend.engine
        if getattr(engine, "on_window", None) is self.on_window:
            engine.on_window = None

    # --------------------------------------------------------------- hook

    def on_window(self, stats: Dict[str, Any]) -> None:
        self.windows_seen += 1
        stall = attribute_stall(stats)
        if stall is not None:
            self.stalls[stall] = self.stalls.get(stall, 0) + 1
        backend = self.backend
        sim = backend.engine.now
        quiescent = self._quiescent_ranks()
        ledger = getattr(backend, "ledger", None)
        if ledger is not None:
            rec = dict(stats)
            rec["sim"] = sim
            if stall is not None:
                rec["stall"] = stall
            if quiescent is not None:
                rec["ranks_quiescent"] = quiescent
            ledger.window(**rec)
            if quiescent is not None and quiescent != self._last_quiescent:
                ledger.quiescence(
                    sim=sim, ranks_quiescent=quiescent,
                    nranks=backend.nranks,
                    pending_by_rank=backend.termination.pending_tasks_by_rank,
                )
        if quiescent is not None:
            self._last_quiescent = quiescent
        tel = backend.telemetry
        if tel is not None and tel.bus.recording:
            # Downsample the bus mirror so long runs keep a representative
            # timeline instead of evicting everything else from the rings.
            keep_every = 1 + self.windows_seen // _MAX_BUS_WINDOWS
            if self.windows_seen % keep_every == 0:
                self._bus_kept += 1
                tel.bus.instant(
                    "window", 0, TID_ENG, cat="engine",
                    width=stats.get("width", 0.0),
                    lookahead=stats.get("lookahead", 0.0),
                    batch=stats.get("batch", 0),
                    executed=stats.get("executed", 0),
                    deferred=stats.get("deferred", 0),
                    events_by_shard=list(stats.get("events_by_shard", ())),
                    heap_depths=list(stats.get("heap_depths", ())),
                    clock_skew=stats.get("clock_skew", 0.0),
                    imbalance=round(
                        imbalance(stats.get("events_by_shard", [])), 4),
                    quiescent_shards=stats.get("quiescent_shards", 0),
                    windows_skipped_quiescent=stats.get(
                        "windows_skipped_quiescent", 0),
                    **({"stall": stall} if stall else {}),
                )

    # ------------------------------------------------------------- queries

    def _quiescent_ranks(self) -> Optional[int]:
        pending = self.backend.termination.pending_tasks_by_rank
        if pending is None:
            return None
        return sum(1 for p in pending if p == 0)

    def summary(self) -> Dict[str, Any]:
        """Aggregate stall attribution for the run (ledger_close payload)."""
        return {"windows": self.windows_seen, "stalls": dict(self.stalls)}
