"""Equivalence suite: the sharded engine must reproduce the sequential
engine bit-for-bit on every application.

The sharded executor's determinism argument (exact global ``(time, seq)``
replay inside each conservative window, see :mod:`repro.sim.sharded`) is
asserted here at full strength: run stats, per-template task counts,
tracer task/message records, bench measurements and sanitizer findings
must be *identical* -- not approximately equal -- across engines, for all
four paper applications at several rank counts.
"""

import warnings

import pytest

from repro import core as ttg
from repro.runtime import ParsecBackend
from repro.sim import Cluster, HAWK, Tracer
from repro.sim.sharded import ShardedEngine


def _run(app, kind, nranks, trace=False):
    """One simulated run; returns everything comparable about it."""
    tracer = Tracer() if trace else None
    cluster = Cluster.with_engine(HAWK.with_workers(4), nranks, engine=kind)
    backend = ParsecBackend(cluster, tracer=tracer)
    if app == "potrf":
        from repro.apps.cholesky import cholesky_ttg
        from repro.bench.history import SeededBlockCyclic
        from repro.linalg import TiledMatrix

        a = TiledMatrix(768, 128, SeededBlockCyclic.for_ranks(nranks, 0),
                        synthetic=True)
        res = cholesky_ttg(a, backend)
    elif app == "fw":
        from repro.apps.floydwarshall import floyd_warshall_ttg
        from repro.bench.history import SeededBlockCyclic
        from repro.linalg import TiledMatrix

        w = TiledMatrix(512, 128, SeededBlockCyclic.for_ranks(nranks, 0),
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
        "tasks": None if tracer is None else tracer.tasks,
        "messages": None if tracer is None else tracer.messages,
    }


@pytest.mark.parametrize("nranks", [4, 16, 64])
@pytest.mark.parametrize("app", ["potrf", "fw", "bspmm", "mra"])
def test_sharded_matches_sequential(app, nranks):
    seq = _run(app, "seq", nranks)
    sharded = _run(app, "sharded", nranks)
    assert sharded["makespan"] == seq["makespan"]
    assert sharded["stats"] == seq["stats"]
    assert sharded["task_counts"] == seq["task_counts"]


@pytest.mark.parametrize("app", ["potrf", "mra"])
def test_trace_records_identical(app):
    seq = _run(app, "seq", 4, trace=True)
    sharded = _run(app, "sharded", 4, trace=True)
    assert sharded["tasks"] == seq["tasks"]
    assert sharded["messages"] == seq["messages"]


def test_bench_measurements_identical():
    from repro.bench.history import measure_fw, measure_potrf

    for fn in (measure_potrf, measure_fw):
        a = fn(0, engine="seq").as_dict()
        b = fn(0, engine="sharded").as_dict()
        for skip in ("host_seconds", "engine", "git_sha"):
            a.pop(skip), b.pop(skip)
        assert a == b


def test_pooled_cells_identical_to_inline():
    from repro.bench.history import measure_cell
    from repro.bench.parallel import run_cells

    cells = [{"app": "fw", "seed": s, "engine": "sharded"} for s in (0, 1)]
    parallel = run_cells(cells, processes=2)
    inline = [measure_cell(c) for c in cells]
    for p, i in zip(parallel, inline):
        dp, di = p.as_dict(), i.as_dict()
        for skip in ("host_seconds", "git_sha"):
            dp.pop(skip), di.pop(skip)
        assert dp == di


def test_run_ledgers_agree_on_final_progress(tmp_path):
    """Seq and sharded ledgers of the same run replay to the same totals;
    only the sharded one additionally carries per-window health records."""
    from repro.bench.history import measure_potrf
    from repro.telemetry.ledger import read_ledger, replay_path

    ldir = str(tmp_path)
    snaps, records = {}, {}
    for kind in ("seq", "sharded"):
        measure_potrf(0, engine=kind, ledger_dir=ldir)
        path = f"{ldir}/potrf-seed0-{kind}.ledger.jsonl"
        snaps[kind] = replay_path(path)
        records[kind] = read_ledger(path)
    seq, sharded = snaps["seq"], snaps["sharded"]
    assert seq.complete and sharded.complete
    assert sharded.tasks_done == seq.tasks_done > 0
    assert sharded.tasks_total == seq.tasks_total
    assert sharded.by_template == seq.by_template
    assert sharded.bytes_by_protocol == seq.bytes_by_protocol
    assert sharded.sim == seq.sim  # identical virtual makespan
    assert not any(r["type"] == "window" for r in records["seq"])
    assert sharded.windows > 0
    assert sum(sharded.events_by_shard) > 0


# -------------------------------------------------- sanitizer parity


def _faulty_run(kind):
    """A duplicate-send fault observed under the given engine kind."""

    def _noop(key, *args):
        pass

    e = ttg.Edge("ab", key_type=int, value_type=int)
    sink = ttg.make_tt(_noop, [e], [], name="SINK", keymap=lambda k: 0)

    def gen_body(key, outs):
        outs.send(0, 5, 1)
        outs.send(0, 5, 2)  # duplicate delivery: SAN001

    gen = ttg.make_tt(gen_body, [], [e], name="GEN", keymap=lambda k: 0)
    backend = ParsecBackend(Cluster.with_engine(HAWK, 2, engine=kind))
    ex = ttg.TaskGraph([gen, sink]).executable(backend, sanitize=True)
    ex.invoke(gen, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ex.fence()
    # Canonical form: on the sharded engine one fault can be observed
    # once per rank shard, so compare deduplicated, stably-ordered lists.
    from repro.analysis.sanitizer import canonical_findings

    return [(f.rule.id, f.location, f.message)
            for f in canonical_findings(ex.sanitizer.findings)]


def test_sanitizer_findings_identical():
    seq = _faulty_run("seq")
    sharded = _faulty_run("sharded")
    assert seq  # the fault was detected at all
    assert sharded == seq


def test_app_sanitizer_findings_identical_across_engines():
    from repro.apps.cholesky import build_cholesky_graph
    from repro.bench.history import SeededBlockCyclic
    from repro.linalg import TiledMatrix

    def findings(kind):
        cluster = Cluster.with_engine(HAWK.with_workers(4), 4, engine=kind)
        backend = ParsecBackend(cluster)
        a = TiledMatrix(512, 128, SeededBlockCyclic.for_ranks(4, 0),
                        synthetic=True)
        res = TiledMatrix(512, 128, a.dist, synthetic=True)
        graph, initiator = build_cholesky_graph(a, res)
        ex = graph.executable(backend, sanitize=True)
        for rank in range(4):
            ex.invoke(initiator, rank)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ex.fence()
        from repro.analysis.sanitizer import canonical_findings

        return [(f.rule.id, f.location, f.message)
                for f in canonical_findings(ex.sanitizer.findings)]

    assert findings("sharded") == findings("seq")


def test_sharded_engine_actually_sharded():
    # Guard against a silent fallback: the cluster must have bound one
    # shard per rank and events must really flow through the shards.
    cluster = Cluster.with_engine(HAWK.with_workers(4), 16, engine="sharded")
    assert isinstance(cluster.engine, ShardedEngine)
    assert cluster.engine.nshards == 16
    _run("fw", "sharded", 16)  # uses an equivalent fresh cluster
    eng = Cluster.with_engine(HAWK.with_workers(4), 4, engine="sharded").engine
    assert eng.lookahead == HAWK.network.latency
