"""Telemetry through the full stack: hooks, sampling, capture, overhead."""

import time

import pytest

from repro import core as ttg
from repro.runtime import MadnessBackend, ParsecBackend
from repro.runtime.base import BackendConfig
from repro.runtime.scheduler import SCHEDULER_NAMES
from repro.sim.cluster import Cluster, HAWK
from repro.telemetry.events import Telemetry, capture


def run_fanout(backend, nkeys=12, work=200.0):
    """One source fanning out nkeys tasks, high keys prioritized."""
    e = ttg.Edge("a2b", key_type=int, value_type=int)
    done = []

    def src(key, outs):
        for k in range(nkeys):
            outs.send(0, k, k)

    def work_fn(key, v, outs):
        done.append(key)

    A = ttg.make_tt(src, [], [e], name="SRC", keymap=lambda k: 0)
    B = ttg.make_tt(
        work_fn, [e], [], name="WORK", keymap=lambda k: 0,
        priomap=lambda k: k, cost=lambda k, v: work,
    )
    ex = ttg.TaskGraph([A, B]).executable(backend)
    ex.invoke(A, 0)
    ex.fence()
    return done


def test_queue_depth_sampled_under_priority_scheduler():
    """On a 1-worker node every ready task but the first waits in queue:
    the depth samples must see the pile-up, and pops must come out
    priority-ordered."""
    machine = HAWK.with_workers(1)
    tel = Telemetry(nranks=1, capacity=None)
    backend = ParsecBackend(
        Cluster(machine, 1),
        config=BackendConfig(scheduler="priority"),
        telemetry=tel,
    )
    done = run_fanout(backend, nkeys=12)
    # Key 0 starts on the idle worker as it arrives; everything else piles
    # up behind it and must drain highest-priority-first.
    assert done[1:] == sorted(done[1:], reverse=True)
    depths = [c.values["depth"] for c in tel.bus.counters("queue_depth")]
    # A push and a pop per task: 12 WORK tasks + the SRC task itself.
    assert len(depths) == 2 * 13
    # The peak is the 11 tasks queued behind key 0.
    assert max(depths) == 11


def test_pool_samples_queue_depth_under_any_policy():
    """The pool samples at its push and pop sites, whatever the policy:
    every push and pop leaves one depth sample (the depth after it)."""
    for policy in SCHEDULER_NAMES:
        tel = Telemetry(nranks=1, capacity=None)
        backend = ParsecBackend(Cluster(HAWK.with_workers(1), 1),
                                config=BackendConfig(scheduler=policy),
                                telemetry=tel)
        busy = backend.cluster.node.compute_time(1e9, 0.0)
        backend.submit(0, lambda: None, flops=1e9, name="X")  # takes the worker
        backend.submit(0, lambda: None, name="a")
        backend.engine.schedule_at(
            busy / 2, lambda: backend.submit(0, lambda: None, name="b"))
        backend.run()
        start = {s.name: s.start for s in tel.bus.spans("task")}
        assert (start["a"] < start["b"]) == (policy != "lifo"), policy
        depths = [c.values["depth"] for c in tel.bus.counters("queue_depth")]
        assert depths == [1, 0, 1, 2, 1, 0], policy


def test_attach_telemetry_refuses_nonempty_queue():
    backend = ParsecBackend(Cluster(HAWK.with_workers(1), 1))
    backend.submit(0, lambda: None, flops=1e9)
    backend.submit(0, lambda: None)  # the one worker is busy: queued
    with pytest.raises(ValueError, match="non-empty"):
        backend.attach_telemetry(Telemetry(nranks=1))


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitize"])
def test_attach_telemetry_refuses_a_backend_with_a_plain_executable(sanitize):
    """An executable compiles its delivery once, recorded or not: one bound
    to the backend without a recording bus (sanitized or not) refuses
    telemetry until its fence."""
    backend = ParsecBackend(Cluster(HAWK, 1))
    e = ttg.Edge("e")
    A = ttg.make_tt(lambda k, outs: outs.send(0, k, k), [], [e], name="A")
    B = ttg.make_tt(lambda k, v, outs: None, [e], [], name="B")
    ex = ttg.TaskGraph([A, B]).executable(backend, sanitize=sanitize)
    tel = Telemetry(nranks=1, capacity=None)
    with pytest.raises(ValueError, match="executable bound"):
        backend.attach_telemetry(tel)
    ex.invoke(A, 0)
    ex.fence()
    backend.attach_telemetry(tel)
    ex.invoke(A, 1)
    ex.fence()
    assert [d.args["src"] for d in tel.bus.instants("dep")] == ["A[1]"]


def test_runstats_breakdowns_maintained_without_telemetry():
    backend = ParsecBackend(Cluster(HAWK, 1))
    run_fanout(backend, nkeys=5)
    s = backend.stats
    assert s.tasks_by_template["SRC"] == 1
    assert s.tasks_by_template["WORK"] == 5
    assert sum(s.tasks_by_template.values()) == s.tasks_executed
    d = s.as_dict()
    assert set(d) == set(type(s)().as_dict())
    assert d["tasks_by_template"] is not s.tasks_by_template  # copied


def test_bytes_by_protocol_split():
    import numpy as np

    from repro.linalg.tile import MatrixTile

    tel = Telemetry(nranks=2, capacity=None)
    backend = ParsecBackend(Cluster(HAWK, 2), telemetry=tel)
    got = []
    big = MatrixTile(64, 64, np.ones((64, 64)))  # 32 KiB > eager -> splitmd
    backend.send_value(0, 1, big, got.append)
    backend.send_control(0, 1, lambda: got.append("ctrl"))
    backend.run()
    assert len(got) == 2
    bp = backend.stats.bytes_by_protocol
    assert "splitmd" in bp and "control" in bp
    assert bp["splitmd"] > 64 * 64 * 8
    assert backend.stats.remote_messages == 2
    proto = tel.bus.spans(cat="proto")
    assert {p.name for p in proto} == {"splitmd:meta:data", "splitmd:rma:data"}
    # One splitmd message, 0 -> 1: both phases land on the receiving rank.
    assert [(p.rank, p.args["src"]) for p in proto] == [(1, 0), (1, 0)]
    meta, rma = sorted(proto, key=lambda p: p.start)
    assert meta.flow == rma.flow is not None
    assert meta.end == pytest.approx(rma.start)


def test_termination_quiescence_instants():
    """One ``quiescence`` instant per fence, at the end of the run, carrying
    the final task and message totals -- on a fan-out and on the golden
    16-rank POTRF cell."""
    from tests.test_telemetry_records import _cell

    fanout = Telemetry(nranks=1, capacity=None)
    run_fanout(ParsecBackend(Cluster(HAWK, 1), telemetry=fanout), nkeys=3)
    for tel in (fanout, _cell("potrf")):
        stats = tel.backend.stats
        qs = [ev for ev in tel.bus.instants(cat="rt")
              if ev.name == "quiescence"]
        assert len(qs) == 1
        assert qs[0].ts == tel.bus.makespan() == stats.makespan
        assert qs[0].args == {
            "epoch": 1,
            "tasks": stats.tasks_executed + stats.local_deliveries,
            "messages": stats.remote_messages,
        }


def test_sanitizer_findings_land_on_timeline():
    e = ttg.Edge("dup")
    never = ttg.Edge("never")

    def src(key, outs):
        outs.send(0, 7, 1)
        outs.send(0, 7, 2)

    def sink(key, a, b, outs):
        pass

    S = ttg.make_tt(src, [], [e], name="S", keymap=lambda k: 0)
    K = ttg.make_tt(sink, [e, never], [], name="K", keymap=lambda k: 0)
    tel = Telemetry(nranks=1, capacity=None)
    backend = ParsecBackend(Cluster(HAWK, 1), telemetry=tel)
    ex = ttg.TaskGraph([S, K]).executable(backend, sanitize=True)
    ex.invoke(S, 0)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(Exception):
            ex.fence()
    san = tel.bus.instants(cat="san")
    assert san, "sanitizer findings must appear as instant events"
    assert all(ev.name.startswith("SAN") for ev in san)
    assert all("location" in ev.args and "message" in ev.args for ev in san)
    # One instant per finding the sanitizer holds, in order.
    assert [ev.name for ev in san] == [f.rule.id for f in ex.sanitizer.findings]


def test_dep_instants_emitted_for_sends():
    tel = Telemetry(nranks=1, capacity=None)
    backend = ParsecBackend(Cluster(HAWK, 1), telemetry=tel)
    run_fanout(backend, nkeys=4)
    deps = tel.bus.instants(cat="dep")
    assert len(deps) == 4
    assert all(d.args["src"] == "SRC[0]" for d in deps)
    assert {d.args["dst"] for d in deps} == {f"WORK[{k}]" for k in range(4)}


def test_virtual_time_identical_with_and_without_telemetry():
    """Telemetry must not perturb the simulation: same makespan, same
    stats, task for task."""
    results = []
    for tel in (None, Telemetry(nranks=2, capacity=None)):
        backend = ParsecBackend(Cluster(HAWK, 2), telemetry=tel)
        e = ttg.Edge("x", key_type=int, value_type=int)
        out = []

        def src(key, outs):
            for k in range(16):
                outs.send(0, k, k)

        def snk(key, v, outs):
            out.append(key)

        A = ttg.make_tt(src, [], [e], name="A", keymap=lambda k: 0)
        B = ttg.make_tt(snk, [e], [], name="B", keymap=lambda k: k % 2,
                        cost=lambda k, v: 500.0)
        ex = ttg.TaskGraph([A, B]).executable(backend)
        ex.invoke(A, 0)
        makespan = ex.fence()
        results.append((makespan, backend.stats.as_dict(), sorted(out)))
    (m0, s0, o0), (m1, s1, o1) = results
    assert m0 == m1
    assert s0 == s1
    assert o0 == o1


def test_disabled_overhead_is_small():
    """The no-op path (telemetry=None) must stay within a lenient factor
    of the seed's cost profile -- a coarse tripwire for accidentally
    putting work on the hot path."""

    def once():
        backend = ParsecBackend(Cluster(HAWK, 2))
        t0 = time.perf_counter()
        run_fanout(backend, nkeys=300, work=10.0)
        return time.perf_counter() - t0

    once()                      # warm imports/JIT-ish caches
    base = min(once() for _ in range(3))
    assert base < 5.0           # absolute sanity: this is a tiny graph


def test_capture_attaches_to_every_backend():
    with capture(capacity=None) as runs:
        for cls in (ParsecBackend, MadnessBackend):
            backend = cls(Cluster(HAWK, 1))
            run_fanout(backend, nkeys=3)
    assert len(runs) == 2
    assert {r.backend.name for r in runs} == {"parsec", "madness"}
    for r in runs:
        assert len(r.telemetry.bus.spans(cat="task")) == 4
        assert r.graphs == ["ttg"]
        assert "ttg@" in r.label
    # Observer removed: backends made after the block stay dark.
    backend = ParsecBackend(Cluster(HAWK, 1))
    run_fanout(backend, nkeys=1)
    assert backend.telemetry is None
