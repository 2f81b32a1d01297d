"""Tests for the bench harness (series, tables, node lists)."""

import pytest

from repro.bench.harness import Series, geometric_nodes, print_series, print_table
from repro.bench.figures import table1_configs


def test_series_basics():
    s = Series("x")
    s.add(1, 10.0)
    s.add(2, 20.0)
    assert s.xs == [1, 2] and s.ys == [10.0, 20.0]
    assert s.y_at(2) == 20.0
    assert s.y_at(3) is None


def test_series_monotone():
    up = Series("up", [(1, 1.0), (2, 2.0), (4, 3.9)])
    assert up.monotone_increasing()
    down = Series("down", [(1, 2.0), (2, 1.0)])
    assert not down.monotone_increasing()
    wiggle = Series("w", [(1, 1.0), (2, 0.99)])
    assert wiggle.monotone_increasing(tol=0.02)


def test_geometric_nodes():
    assert geometric_nodes(16) == [1, 2, 4, 8, 16]
    assert geometric_nodes(20) == [1, 2, 4, 8, 16]
    assert geometric_nodes(64, start=8) == [8, 16, 32, 64]
    assert geometric_nodes(1) == [1]
    with pytest.raises(ValueError, match="max nodes 2 .* first node count 4"):
        geometric_nodes(2, start=4)


def test_print_table(capsys):
    print_table("T", ["a", "bb"], [[1, 2], [30, 40]])
    out = capsys.readouterr().out
    assert "== T ==" in out and "30" in out and "bb" in out


def test_print_series(capsys):
    s1 = Series("one", [(1, 1.5), (2, 2.5)])
    s2 = Series("two", [(2, 9.0)])
    print_series("F", "n", [s1, s2])
    out = capsys.readouterr().out
    assert "one" in out and "two" in out
    assert "9.0" in out
    assert "-" in out  # missing point marker


def test_table1_configs():
    rows = table1_configs()
    assert {r["machine"] for r in rows} == {"hawk", "seawulf"}
    for r in rows:
        assert r["workers/node"] > 0
        assert r["net GB/s"] > 0


def _two_captured_runs():
    """Two tiny telemetered 2-rank runs via the capture() recorder."""
    from repro import core as ttg
    from repro.runtime import ParsecBackend
    from repro.sim.cluster import Cluster, HAWK
    from repro.telemetry import capture

    def src(key, outs):
        for k in range(4):
            outs.send(0, k, k)

    def snk(key, v, outs):
        pass

    with capture() as runs:
        for _ in range(2):
            e = ttg.Edge("x", key_type=int, value_type=int)
            A = ttg.make_tt(src, [], [e], name="A", keymap=lambda k: 0)
            B = ttg.make_tt(snk, [e], [], name="B", keymap=lambda k: k % 2)
            ex = ttg.TaskGraph([A, B]).executable(
                ParsecBackend(Cluster(HAWK, 2)))
            ex.invoke(A, 0)
            ex.fence()
    return runs


def test_merged_event_bus_namespaces_ranks():
    from repro.bench.harness import merged_event_bus

    runs = _two_captured_runs()
    assert len(runs) == 2
    merged = merged_event_bus(runs)
    assert merged.nranks == 4      # 2 runs x 2 ranks, offset not aliased
    ranks = {ev.rank for ev in merged.events()}
    assert ranks & {0, 1} and ranks & {2, 3}
    assert len(merged) == sum(len(r.telemetry.bus) for r in runs)
