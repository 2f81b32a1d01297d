"""Oracles for the flat-record event bus: what is read must not depend on
how it was stored.

The runtime's hooks append flat records (``EventBus.record``) and event
objects are built on read; the metrics registry caches handles by raw
labels.  Four checks hold that together:

- a differential property test: the same recordings through the public
  methods and through ``record`` read back as equal events, in every view;
- golden digests of three deterministic cells, computed on the commit
  *before* the flat-record change (0187b73) -- regenerate them only for an
  intended change of telemetry content, with
  ``PYTHONPATH=src python -m tests.test_telemetry_records``;
- the recording guard: a metrics-only run builds no event at all, and a
  subscriber on an unbuffered bus sees what a buffered bus records;
- a structural GC check: the hooks' records leave the cyclic collector.
"""

import gc
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import ParsecBackend
from repro.sim import Cluster, HAWK
from repro.telemetry import EventBus, Telemetry, to_chrome_trace
from repro.telemetry import events as events_mod
from repro.telemetry.events import COUNTER, INSTANT, SPAN
from repro.telemetry.export import event_to_json

# ------------------------------------------------------------ differential

_names = st.sampled_from(["POTRF", "am:data", "dep", "q", "x y", "a[]", "k!r"])
_atoms = st.one_of(st.none(), st.integers(-5, 5), st.text(max_size=3),
                   st.floats(allow_nan=False, allow_infinity=False, width=16))
_keys = st.one_of(st.integers(0, 9), st.tuples(st.integers(0, 9), st.integers(0, 9)),
                  st.text(max_size=3))
_plain_args = st.dictionaries(
    st.sampled_from(["src", "nbytes", "dst[]", "key!r", "size?", "data*", "x y"]),
    _atoms, max_size=4)
_where = st.tuples(st.integers(0, 3), st.integers(0, 2),
                   st.integers(0, 20).map(lambda t: t / 4.0))  # rank, tid, time

_op = st.one_of(
    st.tuples(st.just("span"), _names, _where, st.integers(0, 8),
              st.one_of(st.none(), st.integers(1, 3)), _plain_args),
    st.tuples(st.just("instant"), _names, _where, _plain_args),
    st.tuples(st.just("counter"), _names, _where,
              st.dictionaries(st.sampled_from(["depth", "cpu"]),
                              st.integers(0, 9), min_size=1)),
    # The shapes the built-in hooks record, with deferred formatting.
    st.tuples(st.just("task"), _names, _where, st.integers(0, 8), _keys,
              st.one_of(st.none(), st.integers(0, 99)),
              st.lists(st.integers(1, 9), max_size=3)),
    st.tuples(st.just("dep"), _names, _where, _keys,
              st.one_of(st.none(), st.integers(1, 9))),
)


def _record_both(ops, public, fast):
    """Apply ``ops`` to ``public`` through complete/instant/counter and to
    ``fast`` through record()."""
    now = [0.0]
    public.clock = lambda: now[0]
    for op in ops:
        kind, name, (rank, tid, t) = op[:3]
        now[0] = t
        if kind == "span":
            dur, flow, args = op[3:]
            public.complete(name, rank, tid, t, t + dur, cat="c", flow=flow,
                            args=dict(args))
            fast.record(SPAN, name, "c", rank, tid, t, t + dur, flow,
                        tuple(args), *args.values())
        elif kind == "instant":
            public.instant(name, rank, tid, cat="c", **op[3])
            fast.record(INSTANT, name, "c", rank, tid, t, t, None,
                        tuple(op[3]), *op[3].values())
        elif kind == "counter":
            public.counter(name, rank, **op[3])
            fast.record(COUNTER, name, "counter", rank, 0, t, t, None,
                        tuple(op[3]), *op[3].values())
        elif kind == "task":
            dur, key, pcie, data = op[3:]
            args = {"key": repr(key), "template": name, "priority": 7}
            if pcie is not None:
                args["pcie_bytes"] = pcie
            if data:
                args["data"] = list(data)
            public.complete(name, rank, tid, t, t + dur, cat="task", args=args)
            fast.record(SPAN, name, "task", rank, tid, t, t + dur, None,
                        "key! template priority pcie_bytes? data*",
                        key, name, 7, pcie, *data)
        else:
            key, tok = op[3:]
            extra = {} if tok is None else {"obj": tok, "mode": "cref"}
            public.instant("dep", rank, tid, cat="dep", src="<external>",
                           dst=f"{name}[{key!r}]", edge="e", **extra)
            fast.record(INSTANT, "dep", "dep", rank, tid, t, t, None,
                        "src dst[] edge obj? mode?", "<external>", name, key,
                        "e", tok, None if tok is None else "cref")


def _views(bus):
    return {
        "events": bus.events(),
        "by_rank": [bus.events(rank=r) for r in range(bus.nranks)],
        "spans": bus.spans(), "instants": bus.instants("dep"),
        "counters": bus.counters(),
        "len": len(bus), "dropped": bus.dropped, "makespan": bus.makespan(),
        "jsonl": [event_to_json(e) for e in bus.events()],
        "chrome": to_chrome_trace(bus),
    }


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, max_size=25), capacity=st.sampled_from([None, 3]))
def test_fast_path_reads_back_like_the_public_api(ops, capacity):
    public, fast = EventBus(capacity=capacity), EventBus(capacity=capacity)
    streamed = []
    unbuffered = EventBus(capacity=0)
    unbuffered.subscribe(streamed.append)
    _record_both(ops, public, fast)
    _record_both(ops, EventBus(capacity=0), unbuffered)

    # Unread records survive a checkpoint round trip as records.
    state = pickle.loads(pickle.dumps(fast.dump_state()))
    assert all(type(r) is tuple for ring in state["rings"] for r in ring)
    restored = EventBus(capacity=capacity)
    restored.load_state(state)

    want = _views(public)
    assert _views(fast) == want
    assert _views(restored) == want
    # Reading twice hands out the same objects.
    assert all(a is b for a, b in zip(fast.events(), fast.events()))
    # A restored bus takes event objects as well as records.
    again = EventBus(capacity=capacity)
    again.load_state(pickle.loads(pickle.dumps(fast.dump_state())))
    assert _views(again) == want
    # Subscribers got event objects, in recording order.
    if capacity is None:
        assert sorted(streamed, key=lambda e: (e.rank, e.ts)) == \
            [e for by_rank in want["by_rank"] for e in by_rank]
    assert len(unbuffered) == 0 and unbuffered.recording
    unbuffered.unsubscribe(streamed.append)
    assert not unbuffered.recording


# ------------------------------------------------------------------ cells

GOLDEN = {
    "potrf": "60ba201703526d503758ba70ff27a3fa6a6a0a8137d7bbec0dd94c73e5fdd0d2",
    "bspmm": "8184c652a779b8cce0396b151162a070f93b761e67d53981f4a2f971129dc1a5",
    "mra": "46e3cbf91bcdbe0d04890e48c1bec1d724c1607c7a3f3cd064ec224853bafbb4",
}


def _cell(app, tel=None, n=1024):
    nranks = 16 if app == "potrf" else 4
    if tel is None:
        tel = Telemetry(nranks=nranks, capacity=None)
    backend = ParsecBackend(Cluster(HAWK.with_workers(4), nranks), telemetry=tel)
    if app == "potrf":
        from repro.apps.cholesky import cholesky_ttg
        from repro.bench.history import SeededBlockCyclic
        from repro.linalg import TiledMatrix

        cholesky_ttg(TiledMatrix(n, 128, SeededBlockCyclic.for_ranks(nranks, 0),
                                 synthetic=True), backend)
    elif app == "bspmm":
        from repro.apps.bspmm import bspmm_ttg
        from repro.linalg import yukawa_blocksparse

        a = yukawa_blocksparse(15, target_tile=24, seed=0)
        bspmm_ttg(a, a, backend)
    else:
        from repro.apps.mra import mra_ttg, random_gaussians

        mra_ttg(random_gaussians(4, seed=0), backend, k=4, thresh=1.0e-4,
                max_level=5)
    return tel


def digest(tel):
    """sha256 over the Chrome trace, the JSONL records and the metrics, in
    emission order (dict key order included)."""
    blob = json.dumps([
        to_chrome_trace(tel),
        [event_to_json(ev) for ev in tel.bus.events()],
        tel.metrics.as_dict(),
    ])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("app", sorted(GOLDEN))
def test_telemetry_output_matches_golden_digest(app):
    assert digest(_cell(app)) == GOLDEN[app]


def test_metrics_only_run_builds_no_event(monkeypatch):
    built = []

    def counted(real):
        class Counted(real):
            def __new__(cls, *args, **kwargs):
                built.append(real.__name__)
                return super().__new__(cls)
        return Counted

    for name in ("SpanEvent", "InstantEvent", "CounterEvent"):
        monkeypatch.setattr(events_mod, name, counted(getattr(events_mod, name)))
    record = EventBus.record
    monkeypatch.setattr(
        EventBus, "record",
        lambda self, *rec: built.append("record") or record(self, *rec))

    full = _cell("potrf")
    assert "record" in built and "InstantEvent" in built  # the probe works
    del built[:]
    tel = _cell("potrf", Telemetry(nranks=16, events=False))
    assert not tel.bus.recording and built == []
    assert tel.metrics.as_dict() == full.metrics.as_dict()


@pytest.mark.parametrize("app", ["potrf", "bspmm"])
def test_subscriber_on_unbuffered_bus_sees_the_buffered_stream(app):
    """Every hook honours ``recording``, not ``capacity``: task spans, dep /
    alias / stream instants, protocol phases and queue samples all reach a
    subscriber of a metrics-only bus."""
    buffered = _cell(app).bus.events()
    tel = Telemetry(nranks=4, events=False)
    streamed = []
    tel.bus.subscribe(streamed.append)
    _cell(app, tel)
    assert len(tel.bus) == 0
    assert {e.cat for e in streamed} >= {"task", "dep", "comm", "counter"}
    assert sorted(streamed, key=lambda e: (e.ts, e.rank)) == buffered


def test_hook_records_leave_the_cyclic_gc():
    """Count-based: after one collection, at most one young-generation
    window of the hooks' records (those whose key tuple was discovered
    after them) is still tracked; event objects would all be."""
    tel = _cell("potrf", n=2048)
    gc.collect()
    records = [r for r in tel.bus.drain()[0] if type(r) is tuple]
    assert len(records) > 10 * gc.get_threshold()[0]
    assert sum(map(gc.is_tracked, records)) <= gc.get_threshold()[0]


if __name__ == "__main__":
    for name in GOLDEN:
        print(f'    "{name}": "{digest(_cell(name))}",')
