"""Parity suite: the one event loop reproduces the deleted sharded engine.

The rank-sharded engine replayed the sequential engine's exact global
``(time, seq)`` order, and this suite used to run both kinds side by side
and compare run stats, per-template task counts, task/message records,
bench measurements, ledger totals and sanitizer findings for
*identity*.  The digests and findings below were recorded from the
sharded engine on the last version that had it (its sequential runs gave
the same values), so every comparison still holds at full strength:
the one loop must land on what both kinds produced -- not approximately,
bit for bit.
"""

import hashlib
import json
import warnings

import pytest

from repro import core as ttg
from repro.runtime import ParsecBackend
from repro.sim import Cluster, HAWK
from repro.telemetry import Telemetry


def _digest(obj):
    """A stable fingerprint: canonical JSON, records by ``repr``."""
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rows(bus):
    """Sorted task rows ``(name, repr(key), rank, worker, start, end)`` and
    message rows ``(src, dst, nbytes, sent, arrived, tag)`` of a recording."""
    tasks, messages = [], []
    for ev in bus.spans():
        if ev.cat == "task":
            tasks.append((ev.name, ev.args["key"], ev.rank, ev.tid,
                          ev.start, ev.end))
        elif ev.cat == "comm":
            messages.append((ev.args["src"], ev.rank, ev.args["nbytes"],
                             ev.start, ev.end, ev.name.split(":", 1)[1]))
    return sorted(tasks), sorted(messages)


def _run(app, nranks, trace=False):
    """One simulated run; returns everything comparable about it."""
    tel = Telemetry(nranks=nranks, capacity=None) if trace else None
    backend = ParsecBackend(Cluster(HAWK.with_workers(4), nranks),
                            telemetry=tel)
    if app == "potrf":
        from repro.apps.cholesky import cholesky_ttg
        from repro.linalg import BlockCyclicDistribution, TiledMatrix

        a = TiledMatrix(768, 128, BlockCyclicDistribution.for_ranks(nranks),
                        synthetic=True)
        res = cholesky_ttg(a, backend)
    elif app == "fw":
        from repro.apps.floydwarshall import floyd_warshall_ttg
        from repro.linalg import BlockCyclicDistribution, TiledMatrix

        w = TiledMatrix(512, 128, BlockCyclicDistribution.for_ranks(nranks),
                        synthetic=True)
        res = floyd_warshall_ttg(w, backend)
    elif app == "bspmm":
        from repro.apps.bspmm import bspmm_ttg
        from repro.linalg import yukawa_blocksparse

        a = yukawa_blocksparse(15, target_tile=24, seed=0)
        res = bspmm_ttg(a, a, backend)
    elif app == "mra":
        from repro.apps.mra import mra_ttg, random_gaussians

        res = mra_ttg(random_gaussians(4, seed=0), backend, k=4,
                      thresh=1.0e-4, max_level=5)
    else:  # pragma: no cover
        raise ValueError(app)
    return {
        "stats": backend.stats.as_dict(),
        "makespan": res.makespan,
        "task_counts": dict(res.task_counts),
        "rows": None if tel is None else _rows(tel.bus),
    }


#: ``_digest([makespan, stats, task_counts])`` of each sharded run.
SHARDED_RUNS = {
    ("potrf", 4): "c6bf2382614576be",
    ("potrf", 16): "c9ce427d97b4f50c",
    ("potrf", 64): "c7bb08626a4101b4",
    ("fw", 4): "a27b5ab1bc3ef90a",
    ("fw", 16): "f8035d2c1fd40978",
    ("fw", 64): "2928b529ba1f6a77",
    ("bspmm", 4): "0d7bfaafb68b8776",
    ("bspmm", 16): "89e713540d667cfd",
    ("bspmm", 64): "b2e54aec8fe87238",
    ("mra", 4): "f7358032db5511d3",
    ("mra", 16): "e91f604473496c73",
    ("mra", 64): "3618ee33d1dcf44b",
}


@pytest.mark.parametrize("nranks", [4, 16, 64])
@pytest.mark.parametrize("app", ["potrf", "fw", "bspmm", "mra"])
def test_sharded_matches_sequential(app, nranks):
    run = _run(app, nranks)
    assert _digest([run["makespan"], run["stats"], run["task_counts"]]) \
        == SHARDED_RUNS[app, nranks]


#: ``_digest(_rows(bus))`` of the recorded 4-rank runs: 81 task and 90
#: message rows (POTRF), 368 and 268 (MRA).  Recorded where the rows still
#: equalled those of the first-generation tracer, whose digests of the
#: sharded runs this test compared against before.
SHARDED_TRACES = {"potrf": "d8bf593dcf6b6180", "mra": "7f277c3a161a43d4"}


@pytest.mark.parametrize("app", ["potrf", "mra"])
def test_trace_records_identical(app):
    run = _run(app, 4, trace=True)
    assert _digest(run["rows"]) == SHARDED_TRACES[app]


def test_bench_measurements_identical():
    """The seed-0 cells of the watchdog's default sweep, one per app of
    ``APPS``, measured at each app's defaults, equal their committed
    records field for field.  Every app is swept at seeds 0, 1 and 2.
    The POTRF and FW records must also take at least ``max(S, W / P)``
    of their cell."""
    from pathlib import Path

    from repro.bench.history import (
        APPS,
        CELLS,
        BenchHistory,
        measure_cell,
        moved_fields,
    )
    from repro.bench.workspan import fw_work_span, potrf_work_span

    work_span = {"potrf": potrf_work_span, "fw": fw_work_span}
    root = str(Path(__file__).resolve().parents[1])

    assert set(APPS) == {"potrf", "fw", "bspmm", "mra"}
    defaults = [c for c in CELLS if set(c) == {"app", "backend", "seed"}]
    assert [(c["app"], c["seed"]) for c in defaults] == \
        [(app, seed) for app in APPS for seed in (0, 1, 2)]
    for cell in defaults:
        if cell["seed"] != 0:
            continue
        record = measure_cell(cell)
        app = record.app
        assert record.makespan > 0 and record.tasks_total > 0
        pin = BenchHistory.load_app(app, root).pin(record)
        assert pin is not None and moved_fields(pin, record) == [], app
        if app in work_span:
            c = record.config
            ws = work_span[app](c["n"] // c["b"], c["b"],
                                HAWK.with_workers(c["workers"]).node)
            bound = ws.lower_bound(c["nodes"] * c["workers"])
            assert record.makespan >= bound * (1 - 1e-9), (app, bound)


# -------------------------------------------------- sanitizer parity


def _canonical(findings):
    from repro.analysis.sanitizer import canonical_findings

    return [(f.rule.id, f.location, f.message)
            for f in canonical_findings(findings)]


def _faulty_run():
    """A duplicate-send fault observed by the sanitizer."""

    def _noop(key, *args):
        pass

    e = ttg.Edge("ab", key_type=int, value_type=int)
    sink = ttg.make_tt(_noop, [e], [], name="SINK", keymap=lambda k: 0)

    def gen_body(key, outs):
        outs.send(0, 5, 1)
        outs.send(0, 5, 2)  # duplicate delivery: SAN001

    gen = ttg.make_tt(gen_body, [], [e], name="GEN", keymap=lambda k: 0)
    backend = ParsecBackend(Cluster(HAWK, 2))
    ex = ttg.TaskGraph([gen, sink]).executable(backend, sanitize=True)
    ex.invoke(gen, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ex.fence()
    return _canonical(ex.sanitizer.findings)


def test_sanitizer_findings_identical():
    assert _faulty_run() == [
        ("SAN001", "SINK[5].in0",
         "duplicate delivery: first sent by GEN[0], sent again by GEN[0]"),
        ("SAN002", "SINK[5]",
         "task ID reused: an instance with this ID already fired"),
        ("SAN002", "SINK[5].in0",
         "message delivered to a task ID whose instance already fired "
         "(task-ID reuse)"),
    ]


def test_sharded_engine_actually_sharded():
    """Guard against a silent fallback: asking for the deleted kind fails
    loudly instead of quietly measuring the one engine under the old
    name.  A bench cell takes no engine at all: the key is an unknown
    parameter."""
    from repro.bench.history import measure_cell

    with pytest.raises(ValueError, match=r"'sharded'.*\('seq',\)"):
        Cluster.with_engine(HAWK.with_workers(4), 16, engine="sharded")
    with pytest.raises(TypeError, match=r"unknown parameter.*'engine'"):
        measure_cell({"app": "fw", "seed": 0, "engine": "sharded"})
