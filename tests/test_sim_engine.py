"""Tests for the discrete-event engine.

The heap entry is the event: ``(time, seq, fn, args)`` for one call,
``(time, seq, None, calls)`` for a same-time burst whose members own the
consecutive sequence numbers from ``seq``.  The tests below pin that the
two shapes interleave, split, fail and snapshot exactly like the same
calls scheduled one by one.
"""

import pytest

from repro.sim.engine import Engine, EngineError


def test_runs_in_time_order():
    eng = Engine()
    hits = []
    eng.schedule(2.0, hits.append, "late")
    eng.schedule(1.0, hits.append, "early")
    eng.schedule(3.0, hits.append, "last")
    eng.run()
    assert hits == ["early", "late", "last"]


def test_ties_break_by_schedule_order():
    eng = Engine()
    hits = []
    for i in range(10):
        eng.schedule(1.0, hits.append, i)
    eng.run()
    assert hits == list(range(10))


def test_clock_advances_to_event_time():
    eng = Engine()
    eng.schedule(5.0, lambda: None)
    eng.run()
    assert eng.now == 5.0


def test_clock_does_not_go_backward():
    eng = Engine()
    times = []
    eng.schedule(1.0, lambda: times.append(eng.now))
    eng.schedule(1.0, lambda: times.append(eng.now))
    eng.schedule(2.0, lambda: times.append(eng.now))
    eng.run()
    assert times == sorted(times)


def test_schedule_during_run():
    eng = Engine()
    hits = []

    def chain(n):
        hits.append(n)
        if n < 3:
            eng.schedule(1.0, chain, n + 1)

    eng.schedule(0.0, chain, 0)
    eng.run()
    assert hits == [0, 1, 2, 3]
    assert eng.now == 3.0


def test_zero_delay_events_run_after_current():
    eng = Engine()
    hits = []

    def outer():
        eng.schedule(0.0, hits.append, "inner")
        hits.append("outer")

    eng.schedule(1.0, outer)
    eng.run()
    assert hits == ["outer", "inner"]


def test_schedule_in_past_raises():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run()
    with pytest.raises(EngineError):
        eng.schedule_at(0.5, lambda: None)


def test_negative_delay_raises():
    eng = Engine()
    with pytest.raises(EngineError):
        eng.schedule(-1.0, lambda: None)


def test_run_until_stops_clock():
    eng = Engine()
    hits = []
    eng.schedule(1.0, hits.append, 1)
    eng.schedule(5.0, hits.append, 5)
    eng.run(until=2.0)
    assert hits == [1]
    assert eng.now == 2.0
    eng.run()
    assert hits == [1, 5]


def test_run_max_events():
    eng = Engine()
    hits = []
    for i in range(5):
        eng.schedule(float(i + 1), hits.append, i)
    eng.run(max_events=2)
    assert hits == [0, 1]


def test_events_processed_counter():
    eng = Engine()
    for i in range(4):
        eng.schedule(1.0, lambda: None)
    eng.run()
    assert eng.events_processed == 4


def test_step_returns_false_when_empty():
    eng = Engine()
    assert eng.step() is False
    eng.schedule(1.0, lambda: None)
    assert eng.step() is True
    assert eng.step() is False


def test_reset():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run()
    eng.reset()
    assert eng.now == 0.0
    assert eng.empty()
    assert eng.events_processed == 0


def test_reentrant_run_raises():
    eng = Engine()

    def recurse():
        eng.run()

    eng.schedule(1.0, recurse)
    with pytest.raises(EngineError):
        eng.run()


def test_determinism_same_schedule_same_trace():
    def build():
        eng = Engine()
        hits = []
        for i in range(50):
            eng.schedule((i * 7) % 5 * 0.25, hits.append, i)
        eng.run()
        return hits

    assert build() == build()


def test_args_passed_through():
    eng = Engine()
    out = []
    eng.schedule(1.0, lambda a, b, c: out.append(a + b + c), 1, 2, 3)
    eng.run()
    assert out == [6]


# ------------------------------------------------- singles and bursts


def test_singles_and_bursts_interleave_in_time_seq_order():
    eng = Engine()
    hits = []
    eng.schedule(2.0, hits.append, "late")
    eng.schedule(1.0, hits.append, "a")
    eng.schedule_batch(1.0, [(hits.append, ("b",)), (hits.append, ("c",))])
    eng.schedule(1.0, hits.append, "d")
    eng.schedule_batch(0.5, [(hits.append, ("first",))])
    eng.schedule_batch(2.0, [(hits.append, ("later",))])
    eng.run()
    assert hits == ["first", "a", "b", "c", "d", "late", "later"]
    assert eng.events_processed == 7


def test_burst_scheduled_inside_a_burst_runs_after_it():
    eng = Engine()
    hits = []

    def fan_out(tag):
        hits.append(tag)
        eng.schedule_batch(0.0, [(hits.append, (tag + "'",))])

    eng.schedule_batch(1.0, [(fan_out, ("x",)), (fan_out, ("y",))])
    eng.schedule(1.0, hits.append, "z")
    eng.run()
    assert hits == ["x", "y", "z", "x'", "y'"]


def test_max_events_stop_inside_burst_resumes_in_order():
    eng = Engine()
    hits = []
    eng.schedule_batch(1.0, [(hits.append, (i,)) for i in range(6)])
    eng.schedule(1.0, hits.append, "after")
    eng.run(max_events=4)
    assert hits == [0, 1, 2, 3]
    assert eng.pending == 3
    eng.schedule(1.0, hits.append, "newest")
    eng.run()
    assert hits == [0, 1, 2, 3, 4, 5, "after", "newest"]


def test_step_runs_one_burst_member_at_a_time():
    eng = Engine()
    hits = []
    eng.schedule_batch(1.0, [(hits.append, (i,)) for i in range(3)])
    eng.schedule(1.0, hits.append, "single")
    assert eng.step() and hits == [0]
    assert eng.pending == 3
    while eng.step():
        pass
    assert hits == [0, 1, 2, "single"]


def test_exception_from_burst_member_leaves_the_tail_queued():
    eng = Engine()
    hits = []

    def boom():
        raise RuntimeError("boom")

    eng.schedule_batch(
        1.0, [(hits.append, (0,)), (boom, ()), (hits.append, (2,))])
    eng.schedule(1.0, hits.append, 3)
    with pytest.raises(RuntimeError):
        eng.run()
    assert hits == [0] and eng.pending == 2
    eng.run()
    assert hits == [0, 2, 3]


def test_pending_counts_burst_members():
    eng = Engine()
    eng.schedule_batch(1.0, [(print, ()), (print, ())])
    eng.schedule(2.0, print)
    eng.schedule_batch(3.0, [])
    assert eng.pending == 3
    assert not eng.empty()


def test_reused_calls_list_is_safe():
    eng = Engine()
    hits = []
    calls = [(hits.append, ("a",)), (hits.append, ("b",))]
    eng.schedule_batch(1.0, calls)
    calls[0] = (hits.append, ("changed",))
    calls.append((hits.append, ("appended",)))
    eng.schedule_batch(2.0, calls)
    calls.clear()
    eng.run()
    assert hits == ["a", "b", "changed", "b", "appended"]

