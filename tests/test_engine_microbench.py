"""Micro-benchmark of the event-engine hot loop.

Measures events/second on a synthetic event storm, on the bare loop
(``seq``) and on the loop with its one periodic hook, ``on_checkpoint``,
firing before every event (``hooked``), and checks the optimizations stay
effective:

- the batched ``schedule_batch`` path must hold one heap entry per burst
  (it exists to amortize ``heappush``), and under REPRO_BENCH_STRICT
  must not be slower than N single pushes;
- both rows must execute the storm in the identical, exact
  ``(time, schedule order)`` order.

Host-time assertions are inherently flaky on loaded or single-core CI
hosts, so the *strict* throughput gates only arm when REPRO_BENCH_STRICT
is set; the order and smoke assertions always run.
"""

import gc
import os
import time

import pytest

from repro.sim.engine import Engine

STRICT = bool(os.environ.get("REPRO_BENCH_STRICT"))

N_EVENTS = 20_000


def _engine(kind):
    eng = Engine()
    if kind == "hooked":
        eng.on_checkpoint = lambda now, n: None
        eng.checkpoint_every = 1
    return eng


def _when(i):
    return (i * 13) % 97 * 1e-6


def _storm(eng, hits, n=N_EVENTS):
    """A deterministic storm: staggered times, many ties."""
    for i in range(n):
        eng.schedule(_when(i), hits.append, i)


def _time_drain(eng):
    t0 = time.perf_counter()
    eng.run()
    return time.perf_counter() - t0


@pytest.mark.parametrize("kind", ["seq", "hooked"])
def test_storm_throughput_smoke(kind):
    eng = _engine(kind)
    hits = []
    _storm(eng, hits)
    host = _time_drain(eng)
    assert len(hits) == N_EVENTS
    assert eng.events_processed == N_EVENTS
    rate = N_EVENTS / host
    # Even a slow CI box clears 50k events/s; the point is catching an
    # accidental O(n log n) -> O(n^2) or per-event allocation regression.
    if STRICT:
        assert rate > 200_000, f"{kind} loop at {rate:,.0f} ev/s"
    else:
        assert rate > 20_000, f"{kind} loop at {rate:,.0f} ev/s"


def test_seq_and_hooked_order_identical_on_storm():
    results = []
    for kind in ("seq", "hooked"):
        hits = []
        eng = _engine(kind)
        _storm(eng, hits, n=5_000)
        eng.run()
        results.append(hits)
    assert results[0] == results[1]
    assert results[0] == sorted(range(5_000), key=lambda i: (_when(i), i))


def test_batched_schedule_not_slower_than_single():
    """One heap entry per burst instead of one per call, draining the same
    calls in the same order.  The entry counts are the deterministic
    property the batched path exists for; the wall-time comparison arms
    only under REPRO_BENCH_STRICT, best of 5 with the collector off."""
    n_bursts, burst = 400, 50

    def single(hits):
        eng = Engine()
        for b in range(n_bursts):
            for i in range(burst):
                eng.schedule(float(b), hits.append, (b, i))
        return eng

    def batched(hits):
        eng = Engine()
        for b in range(n_bursts):
            eng.schedule_batch(float(b),
                               [(hits.append, ((b, i),)) for i in range(burst)])
        return eng

    expected = [(b, i) for b in range(n_bursts) for i in range(burst)]
    for build, entries in ((single, n_bursts * burst), (batched, n_bursts)):
        hits = []
        eng = build(hits)
        assert len(eng._heap) == entries  # heap entries, not calls
        assert eng.pending == n_bursts * burst
        eng.run()
        assert hits == expected

    if STRICT:
        def best_of_5(build):
            times = []
            gc.disable()
            try:
                for _ in range(5):
                    t0 = time.perf_counter()
                    build([]).run()
                    times.append(time.perf_counter() - t0)
            finally:
                gc.enable()
            return min(times)

        t_single, t_batched = best_of_5(single), best_of_5(batched)
        assert t_batched <= t_single * 1.10, (
            f"batched {t_batched:.4f}s vs single {t_single:.4f}s"
        )
