"""Fast smoke tests of the figure experiment plumbing and the bench CLI (tiny scales).

The full figure runs live in benchmarks/; these exercise the same code
paths in seconds so `pytest tests/` alone covers the harness.
"""

import pytest

from repro.bench import figures
from repro.bench.__main__ import main as bench_main


def test_fig5_tiny():
    series = figures.fig5_potrf_weak(max_nodes=2, workers=4, per_node=1024, b=256)
    assert set(series) == {"ttg", "dplasma", "chameleon", "slate", "scalapack"}
    for s in series.values():
        assert len(s.points) == 2
        assert all(y > 0 for y in s.ys)


def test_fig6_tiny():
    series = figures.fig6_potrf_problem(nodes=2, workers=4, b=256,
                                        sizes=[1024, 2048])
    for s in series.values():
        assert s.xs == [1024, 2048]
        assert s.ys[1] > s.ys[0]  # bigger problems run faster per flop


def test_fig8_tiny():
    series = figures.fig8_fw_hawk(max_nodes=4, workers=4, n=512)
    parsec = [n for n in series if n.startswith("ttg-parsec")]
    assert len(parsec) == 3
    assert any(n.startswith("mpi+openmp") for n in series)
    for s in series.values():
        assert all(y > 0 for y in s.ys)


def test_fig9_tiny():
    series = figures.fig9_fw_seawulf(max_nodes=4, workers=4, n=512)
    assert any(n.startswith("ttg-madness") for n in series)


def test_fig12_tiny():
    series = figures.fig12_bspmm(max_nodes=8, workers=4, natoms=40)
    assert set(series) == {"ttg-parsec", "ttg-madness", "dbcsr"}
    for s in series.values():
        assert s.xs == [4, 8]
        assert all(y > 0 for y in s.ys)


def test_fig13_tiny():
    series = figures.fig13a_mra_seawulf(max_nodes=2, workers=4)
    assert set(series) == {"ttg-parsec", "ttg-madness", "native-madness"}
    for s in series.values():
        assert all(y > 0 for y in s.ys)


def test_shared_cells_run_once():
    """Figures sharing a ``cells`` dict run a cell they share once and
    return what each returns alone; the key holds the machine, so Fig 13a
    and 13b (same cells on Seawulf and Hawk) share none."""
    from repro.core.graph import (add_construction_observer,
                                  remove_construction_observer)

    bound = []

    def observe(kind, obj):
        if kind == "executable":
            bound.append(kind)

    def potrf(cells=None):
        # Fig 5's 2-node point is Fig 6's n=1536 point at 2 nodes.
        return (figures.fig5_potrf_weak(max_nodes=2, workers=4, per_node=1024,
                                        b=256, cells=cells),
                figures.fig6_potrf_problem(nodes=2, workers=4, b=256,
                                           sizes=[1536], cells=cells))

    add_construction_observer(observe)
    try:
        alone = potrf()
        unshared = len(bound)
        shared = potrf({})
    finally:
        remove_construction_observer(observe)
    assert shared == alone
    assert len(bound) - unshared < unshared

    cells = {}
    seawulf = figures.fig13a_mra_seawulf(max_nodes=2, workers=4, cells=cells)
    hawk = figures.fig13b_mra_hawk(max_nodes=2, workers=4, cells=cells)
    assert hawk == figures.fig13b_mra_hawk(max_nodes=2, workers=4)
    assert hawk != seawulf


def test_bench_scale_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    assert figures.bench_scale() == "small"
    monkeypatch.setenv("REPRO_BENCH_SCALE", "LARGE")
    assert figures.bench_scale() == "large"


def test_scaled_machine_helper():
    from repro.sim.cluster import HAWK

    m = figures.scaled(HAWK, 4)
    assert m.node.workers == 4
    assert m.network == HAWK.network


def test_cli_table1(capsys):
    assert bench_main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "hawk" in out and "seawulf" in out


def test_cli_figure_with_max_nodes(capsys, tmp_path):
    assert bench_main(["fig13b", "--max-nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "Fig 13b" in out
    assert "ttg-parsec" in out
    for fig in ("fig5", "fig6"):
        for bad in ("0", "-2"):
            with pytest.raises(SystemExit) as exc:
                bench_main([fig, "--max-nodes", bad])
            assert exc.value.code == 2  # an argparse usage error
            assert "--max-nodes: must be >= 1" in capsys.readouterr().err
    # fig12 sweeps from 4 nodes: a lower cap is refused, not an empty table
    log = tmp_path / "f.jsonl"
    for argv in (["fig12", "--max-nodes", "1"],
                 ["fig12", "--max-nodes", "2", "--telemetry", str(log)],
                 ["all", "--max-nodes", "2"]):
        with pytest.raises(SystemExit) as exc:
            bench_main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"max nodes {argv[2]} is below the sweep's first node " \
            "count 4" in captured.err
        assert captured.out == ""  # refused before anything ran
    assert not log.exists()
    # an unwritable log is refused before the figure runs
    bad = tmp_path / "missing" / "f.jsonl"
    with pytest.raises(SystemExit) as exc:
        bench_main(["fig9", "--max-nodes", "2", "--telemetry", str(bad)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"--telemetry {bad}: No such file or directory" in captured.err
    assert "Fig" not in captured.out


def test_cli_rejects_unknown():
    with pytest.raises(SystemExit):
        bench_main(["fig99"])


def test_cli_telemetry_log_is_complete(tmp_path, monkeypatch, capsys):
    """A figure's event log is the whole recording: the CLI asks for
    unbounded rings, so even with ``capture``'s default ring shrunk to 64
    events (a tiny figure overflows that) nothing is evicted and nothing
    is warned about."""
    import repro.telemetry as telemetry

    real_capture = telemetry.capture
    monkeypatch.setattr(telemetry, "capture",
                        lambda capacity=64: real_capture(capacity=capacity))
    log = tmp_path / "fig5.jsonl"
    assert bench_main(["fig5", "--max-nodes", "1", "--telemetry",
                       str(log)]) == 0
    captured = capsys.readouterr()
    assert f"wrote {log}" in captured.out
    assert captured.err == ""
    bus = telemetry.read_jsonl(str(log))
    assert len(bus) > 64 * bus.nranks
    assert sum(bus.dropped) == 0
