"""Oracles for the flat-record event bus: what is read must not depend on
how it was stored.

The runtime's hooks append records (``EventBus.record``, or ``emit`` with a
shared head), one entry per broadcast fan-out (``batch``), and event
objects are built on read.  Four checks hold that together:

- a differential property test: the same recordings through the public
  methods and through ``record`` / ``emit`` / ``batch`` read back as equal
  events, in every view, on bounded and unbounded buses, and after a
  ``drain`` / ``extend`` round trip;
- golden digests of three deterministic cells, computed on the commit
  *before* the flat-record change (0187b73) -- regenerate them only for an
  intended change of telemetry content, with
  ``PYTHONPATH=src python -m tests.test_telemetry_records``.  POTRF was
  regenerated once since, when ``quiescence`` became one instant per
  drain (its trace had two).  All three were regenerated when the
  single-queue worker pool dropped the queue metrics' ``device`` label
  (and the never-sampled second-queue metrics) and renamed the
  ``queue_depth_cpu`` counter to ``queue_depth``; every other record is
  unchanged.  All three were regenerated again when the race checks
  moved into the sanitizer: dependency instants lost their ``obj`` /
  ``mode`` fields, task spans their ``data`` list, and the ``alias``
  instants went; every other record and the metrics are unchanged.  All
  three were regenerated once more when the live metrics registry was
  taken off the run path: the digest lost its metrics third, and the
  trace and records it hashes are bit-identical to before;
- the recording guard: a run with ``events=False`` builds no event at all;
- a structural GC check: the hooks' records leave the cyclic collector.
"""

import dataclasses
import gc
import hashlib
import json

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
    st.sampled_from(["src", "nbytes", "dst[]", "key!r", "size?", "x y"]),
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
              st.one_of(st.none(), st.integers(0, 99))),
    st.tuples(st.just("dep"), _names, _where, _keys),
    # A broadcast fan-out: one dep per (consumer, key), one batch entry.
    st.tuples(st.just("bcast"), _names, _where,
              st.lists(st.tuples(_names, _keys), max_size=4)),
)


def _record_both(ops, public, fast):
    """Apply ``ops`` to ``public`` through complete/instant/counter and to
    ``fast`` through record(), emit() (task spans, as the pools record
    them) and batch()."""
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
            dur, key, extra = op[3:]
            args = {"key": repr(key), "template": name, "priority": 7}
            if extra is not None:
                args["extra"] = extra
            public.complete(name, rank, tid, t, t + dur, cat="task", args=args)
            head = (SPAN, name, "task", rank, tid,
                    "key! template priority extra?")
            fast.emit((head, t, t + dur, None, key, name, 7, extra))
        elif kind == "bcast":
            (targets,) = op[3:]
            for tname, key in targets:
                public.instant("dep", rank, tid, cat="dep", src=name,
                               dst=f"{tname}[{key!r}]", edge="e")
            head = (INSTANT, "dep", "dep", rank, tid, "src dst[] edge")
            items = fast.batch((head, t, t, None, name), 3)
            for tname, key in targets:
                items.extend((tname, key, "e"))
        else:
            (key,) = op[3:]
            public.instant("dep", rank, tid, cat="dep", src="<external>",
                           dst=f"{name}[{key!r}]", edge="e")
            fast.record(INSTANT, "dep", "dep", rank, tid, t, t, None,
                        "src dst[] edge", "<external>", name, key, "e")


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
    _record_both(ops, public, fast)

    want = _views(public)
    assert _views(fast) == want
    # Eviction and ``dropped`` count events, not ring entries.
    recorded = sum(len(op[3]) if op[0] == "bcast" else 1 for op in ops)
    assert len(fast) + sum(fast.dropped) == recorded
    # Moved to another bus, the records read back as the same events.
    drained = EventBus(capacity=capacity)
    _record_both(ops, EventBus(capacity=capacity), drained)
    records, dropped = drained.drain()
    assert len(records) == want["len"] and dropped == want["dropped"]
    assert len(drained) == 0
    moved = EventBus(capacity=None)
    moved.extend(records, rank_offset=1)
    assert moved.events() == [dataclasses.replace(e, rank=e.rank + 1)
                              for e in want["events"]]
    # Reading twice hands out the same objects.
    assert all(a is b for a, b in zip(fast.events(), fast.events()))


# ------------------------------------------------------------------ cells

GOLDEN = {
    "potrf": "ed4e6e09f64cfdbee411f5ce35fa10a744a78058a9e918c62566063fd2d1aa14",
    "bspmm": "727356c8ffa522666e28dc57e7ec8d7f3a785f89552d61ac168a55668adc6f83",
    "mra": "26338a106a2902314d1ea93a8eba1e4376abbc79ae2c937633e925897028b77c",
}


def _cell(app, tel=None, n=1024):
    nranks = 16 if app == "potrf" else 4
    if tel is None:
        tel = Telemetry(nranks=nranks, capacity=None)
    backend = ParsecBackend(Cluster(HAWK.with_workers(4), nranks), telemetry=tel)
    if app == "potrf":
        from repro.apps.cholesky import cholesky_ttg
        from repro.linalg import BlockCyclicDistribution
        from repro.linalg import TiledMatrix

        cholesky_ttg(TiledMatrix(n, 128, BlockCyclicDistribution.for_ranks(nranks),
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
    """sha256 over the Chrome trace and the JSONL records, in emission
    order (dict key order included)."""
    blob = json.dumps([
        to_chrome_trace(tel),
        [event_to_json(ev) for ev in tel.bus.events()],
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
    for method in ("record", "emit", "batch"):
        real = getattr(EventBus, method)
        monkeypatch.setattr(
            EventBus, method,
            lambda self, *a, _m=method, _real=real, **kw:
                built.append(_m) or _real(self, *a, **kw))

    full = _cell("potrf")
    # The probe works.
    assert {"emit", "batch", "InstantEvent"} <= set(built)
    del built[:]
    tel = _cell("potrf", Telemetry(nranks=16, events=False))
    assert not tel.bus.recording and built == [] and len(tel.bus) == 0
    assert tel.backend.stats.as_dict() == full.backend.stats.as_dict()


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
