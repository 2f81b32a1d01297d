"""Event bus invariants: ring capacity, disabled no-op path."""

from repro.telemetry.events import (
    CounterEvent,
    EventBus,
    InstantEvent,
    Telemetry,
    TID_AM,
)


def test_ring_capacity_evicts_and_counts_drops():
    bus = EventBus(nranks=1, capacity=4)
    for i in range(10):
        bus.instant(f"i{i}", 0)
    assert len(bus) == 4
    assert bus.dropped[0] == 6
    assert [e.name for e in bus.events()] == ["i6", "i7", "i8", "i9"]


def test_capacity_zero_records_nothing():
    bus = EventBus(nranks=2, capacity=0)
    assert not bus.recording
    bus.instant("x", 0)
    bus.counter("q", 1, depth=3)
    bus.complete("s", 0, 0, 0.0, 1.0)
    assert len(bus) == 0
    assert bus.dropped == [0, 0]


def test_ranks_grow_on_demand():
    bus = EventBus(nranks=1, capacity=None)
    bus.instant("late", 5)
    assert bus.nranks == 6
    assert bus.events(rank=5)[0].name == "late"


def test_events_are_time_sorted_across_ranks():
    bus = EventBus(nranks=2, capacity=None)
    bus.complete("b", 1, 0, 2.0, 3.0)
    bus.complete("a", 0, 0, 0.0, 1.0)
    bus.instant("mid", 0)  # clock() = 0.0 default
    names = [e.name for e in bus.events()]
    assert names.index("a") < names.index("b")


def test_counter_and_instant_kinds():
    bus = EventBus(capacity=None)
    c = bus.counter("depth", 0, cpu=3.0)
    i = bus.instant("dep", 0, TID_AM, cat="dep", src="A", dst="B")
    assert isinstance(c, CounterEvent) and c.values == {"cpu": 3.0}
    assert isinstance(i, InstantEvent) and i.args["src"] == "A"
    assert bus.instants(cat="dep") == [i]
    assert bus.counters("depth") == [c]


def test_makespan_spans_and_instants():
    bus = EventBus(capacity=None)
    assert bus.makespan() == 0.0
    bus.complete("s", 0, 0, 1.0, 4.0)
    bus.instant("i", 0)
    assert bus.makespan() == 4.0


def test_telemetry_bundle_and_flow_ids():
    tel = Telemetry(nranks=2)
    assert tel.bus.nranks == 2
    f1, f2 = tel.bus.new_flow(), tel.bus.new_flow()
    assert f1 != f2
    assert tel.backend is None and tel.lanes is None


def test_metrics_only_mode_disables_bus():
    tel = Telemetry(events=False)
    assert not tel.bus.recording
    tel.bus.instant("x", 0)
    assert len(tel.bus) == 0


def test_backend_without_telemetry_records_nothing():
    """The default path: no Telemetry attached => hooks are no-ops."""
    from repro.runtime import ParsecBackend
    from repro.sim.cluster import Cluster, HAWK

    be = ParsecBackend(Cluster(HAWK, 2))
    assert be.telemetry is None
    assert be.comm.telemetry is None
    done = []
    be.submit(0, lambda: done.append(1))
    be.send_control(0, 1, lambda: done.append(2))
    be.run()
    assert sorted(done) == [1, 2]
