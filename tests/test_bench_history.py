"""Benchmark history store, the watchdog cells and their committed
records, the watchdog CLI."""

import json
import subprocess
from pathlib import Path

import pytest

from repro.bench.__main__ import cell_row
from repro.bench.__main__ import main as bench_main
from repro.bench.history import (
    CELLS,
    BenchHistory,
    BenchRecord,
    SCHEMA,
    SCHEMA_VERSION,
    git_sha,
    measure,
    measure_cell,
    moved_fields,
    record_diff,
    run_watchdog,
    select_record,
)
from repro.linalg import BlockCyclicDistribution

ROOT = Path(__file__).resolve().parents[1]


def _rec(makespan, seed=0, gflops=100.0, **cfg):
    config = {"n": 1024, "b": 128, **cfg}
    return BenchRecord(app="potrf", config=config, seed=seed,
                       makespan=makespan, gflops=gflops, tasks_total=160)


# ----------------------------------------------------------------- records


def test_record_round_trip():
    r = BenchRecord(app="potrf", config={"n": 512}, seed=3, makespan=0.01,
                    gflops=42.0, tasks_total=20,
                    tasks_by_template={"POTRF": 4},
                    bytes_by_protocol={"eager": 1024},
                    critical_path_fraction=0.8, idle_fraction=0.3,
                    counters={"tasks.executed|": 20.0}, git_sha="abc1234")
    again = BenchRecord.from_dict(json.loads(json.dumps(r.as_dict())))
    assert again == r


def test_config_key_is_order_independent():
    a = BenchRecord(app="x", config={"n": 1, "b": 2})
    b = BenchRecord(app="x", config={"b": 2, "n": 1})
    assert a.config_key == b.config_key
    assert BenchRecord(app="x", config={"n": 2, "b": 2}).config_key != a.config_key


def test_history_save_load_round_trip(tmp_path):
    h = BenchHistory("potrf")
    h.append(_rec(0.01))
    h.append(_rec(0.011))
    path = h.save(directory=str(tmp_path))
    assert path.name == "BENCH_potrf.json"
    again = BenchHistory.load(path)
    assert again.app == "potrf"
    assert again.records == h.records


def test_history_append_rejects_wrong_app():
    h = BenchHistory("fw")
    with pytest.raises(ValueError, match="app"):
        h.append(_rec(0.01))


def test_future_schema_version_refused(tmp_path):
    """One schema: a file at any other version, older or newer, is refused
    in one line that names the file and the re-record command."""
    assert SCHEMA_VERSION == 5
    p = tmp_path / "BENCH_potrf.json"
    for version in (SCHEMA_VERSION + 1, 4):
        p.write_text(json.dumps({"schema": SCHEMA, "version": version,
                                 "app": "potrf", "records": []}))
        with pytest.raises(ValueError) as info:
            BenchHistory.load(p)
        message = str(info.value)
        assert message.startswith(f"{p}: schema version {version},")
        assert "--record-history" in message and "\n" not in message


def test_record_with_missing_key_refused(tmp_path):
    """The one schema is read strictly: a record without ``makespan`` (or
    with a key no record has) is refused in one line naming the file and
    the key, not filled with a default."""
    record = _rec(0.01).as_dict()
    p = tmp_path / "BENCH_potrf.json"
    for obj, problem in (({k: v for k, v in record.items()
                           if k != "makespan"}, "lacks key 'makespan'"),
                         (dict(record, baseline=True),
                          "has unknown key 'baseline'")):
        p.write_text(json.dumps({"schema": SCHEMA, "version": SCHEMA_VERSION,
                                 "app": "potrf", "records": [obj]}))
        with pytest.raises(ValueError) as info:
            BenchHistory.load(p)
        assert str(info.value) == f"{p}: record 0: record {problem}"


def test_moved_makespan_fails_its_pin():
    """A +20 % makespan moves a record off its pin, and the watchdog line
    names the field; the commit does not move it."""
    base = _rec(0.010)
    other_commit = _rec(0.010)
    other_commit.git_sha = "abc1234"
    assert moved_fields(base, other_commit) == []
    assert cell_row(other_commit, base).startswith("ok    potrf  seed 0  ")
    slow = _rec(0.012)
    assert moved_fields(base, slow) == ["makespan"]
    row = cell_row(slow, base)
    assert row.startswith("MOVED potrf  seed 0  ")
    assert row.endswith("  moved: makespan")
    # a cell without a committed record fails in one line
    assert cell_row(base, None).endswith("  no committed record")


def test_record_diff_counters_and_format():
    """Counter rows are sorted by key; only the changed ones are printed."""
    a = BenchRecord(app="potrf", counters={"tasks": 3.0, "old": 1.0,
                                           "bytes": 5.0})
    b = BenchRecord(app="potrf", counters={"tasks": 5.0, "new": 2.0,
                                           "bytes": 5.0})
    text, diff = record_diff(a, b)
    assert diff["counters"] == [
        {"counter": "bytes", "a": 5.0, "b": 5.0, "delta": 0.0},
        {"counter": "new", "a": 0.0, "b": 2.0, "delta": 2.0},
        {"counter": "old", "a": 1.0, "b": 0.0, "delta": -1.0},
        {"counter": "tasks", "a": 3.0, "b": 5.0, "delta": 2.0},
    ]
    table = text.split("\ncounter ", 1)[1].splitlines()[1:]
    assert [line.split()[0] for line in table] == ["new", "old", "tasks"]


def test_record_diff_missing_side_reads_zero():
    """A counter, channel or template on one side only (added or removed
    between commits) reads 0 on the other, never KeyError; templates
    rank by count movement."""
    a = BenchRecord(app="potrf", counters={"h": 4.0, "weird": 1.0},
                    tasks_by_template={"GEMM": 8, "TRSM": 4},
                    bytes_by_protocol={"eager": 64})
    b = BenchRecord(app="potrf", counters={"h": 6.0},
                    tasks_by_template={"GEMM": 14, "TRSM": 4, "SYRK": 1},
                    bytes_by_protocol={"splitmd": 64})
    _, diff = record_diff(a, b)
    as_map = {r["counter"]: (r["a"], r["b"], r["delta"])
              for r in diff["counters"]}
    assert as_map == {"h": (4.0, 6.0, 2.0), "weird": (1.0, 0.0, -1.0)}
    assert [(r["channel"], r["a"], r["b"]) for r in diff["bytes_by_protocol"]] \
        == [("eager", 64.0, 0.0), ("splitmd", 0.0, 64.0)]
    assert [(t["template"], t["count_a"], t["count_b"])
            for t in diff["templates"]] == \
        [("GEMM", 8, 14), ("SYRK", 0, 1), ("TRSM", 4, 4)]


def test_select_record():
    recs = [_rec(0.010, seed=0),
            _rec(0.012, seed=1),
            _rec(0.011, seed=2),
            _rec(0.015, seed=0)]
    assert select_record(recs, "last") is recs[-1]
    assert select_record(recs, "seed:0") is recs[-1]    # last of that seed
    assert select_record(recs, "index:1") is recs[1]
    assert select_record(recs, "index:-4") is recs[0]
    with pytest.raises(ValueError):
        select_record([], "last")
    with pytest.raises(ValueError, match="no record with seed 77"):
        select_record(recs, "seed:77")
    with pytest.raises(ValueError, match="index 99 out of range.* 4 record"):
        select_record(recs, "index:99")
    for bad in ("bogus", "index:abc", "seed:", "seed:1.5", "index"):
        with pytest.raises(ValueError) as info:
            select_record(recs, bad)
        assert str(info.value) == (f"unknown record selector {bad!r} "
                                   "(use last|seed:<n>|index:<i>)")


def test_git_sha_marks_a_dirty_tree(tmp_path, monkeypatch):
    """A record names HEAD, with ``-dirty`` when tracked files differ
    from it; untracked files do not count, and outside a checkout the
    sha is empty."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    repo = tmp_path / "repo"
    repo.mkdir()
    monkeypatch.chdir(repo)
    assert git_sha() == ""

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (repo / "f.txt").write_text("a\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "first")
    head = git("rev-parse", "--short", "HEAD")
    (repo / "untracked.txt").write_text("u\n")
    assert git_sha() == head
    (repo / "f.txt").write_text("b\n")
    assert git_sha() == f"{head}-dirty"


# ------------------------------------------------------- seeded placement


def test_seeded_block_cyclic_rotates_ownership():
    """At each pinned seed ``tiles_of_rank`` walks exactly the tiles
    ``rank_of`` gives each rank; seed 0 is the plain map and every other
    seed relabels owners, each rank keeping its tile count."""
    nt, tiles = 6, [(i, j) for i in range(6) for j in range(6)]
    owners = []
    for seed in (0, 1, 2):
        dist = BlockCyclicDistribution.for_ranks(6, seed=seed)
        walked = [(ij, r) for r in range(6) for ij in dist.tiles_of_rank(r, nt)]
        assert sorted(walked) == [(ij, dist.rank_of(*ij)) for ij in tiles]
        owners.append([dist.rank_of(*ij) for ij in tiles])
        assert [owners[-1].count(r) for r in range(6)] == [6] * 6
    assert owners[0] == [(i % 2) * 3 + j % 3 for i, j in tiles]
    assert owners[1] != owners[0] and owners[2] not in owners[:2]


def test_measure_potrf_fills_observability_fields():
    rec = measure("potrf", seed=0)
    assert rec.app == "potrf" and rec.backend == "parsec"
    assert rec.makespan > 0 and rec.gflops > 0 and rec.tasks_total > 0
    assert rec.tasks_by_template and sum(rec.tasks_by_template.values()) == rec.tasks_total
    assert 0 < rec.critical_path_fraction <= 1.0
    assert 0 <= rec.idle_fraction < 1.0
    assert rec.counters


def test_seed_sweep_produces_a_distribution():
    makespans = {round(measure("potrf", seed=s).makespan, 9) for s in (0, 1, 2)}
    assert len(makespans) > 1


# ---------------------------------------------------------------- watchdog


def test_run_watchdog_update_then_check(tmp_path, capsys):
    """Moving a pin is one command: ``--check-regressions`` names the moved
    field, ``--check-regressions --record-history`` compares and then
    appends, and the next check passes."""
    d = str(tmp_path)
    pairs, written = run_watchdog(d, apps=("potrf",), record=True)
    assert [p.name for p in written] == ["BENCH_potrf.json"]
    assert len(pairs) == 5 and all(pin is None for _, pin in pairs)
    history = BenchHistory.load(written[0])
    assert history.records == [r for r, _ in pairs]

    history.records[0].makespan *= 1.2       # a stored, edited makespan
    history.save(directory=d)
    args = ["--check-regressions", "--history-dir", d, "--apps", "potrf"]
    assert bench_main(args) == 1
    out = capsys.readouterr().out
    assert out.count("MOVED") == 1
    assert "MOVED potrf  seed 0  parsec|" in out
    assert "workers=4  moved: makespan\n" in out

    assert bench_main([*args, "--record-history"]) == 1
    assert "moved: makespan\nok" in capsys.readouterr().out
    assert len(BenchHistory.load_app("potrf", d)) == 10

    assert bench_main(args) == 0
    assert "all 5 cell(s) match their committed records" in \
        capsys.readouterr().out
    assert len(BenchHistory.load_app("potrf", d)) == 10


def test_default_sweep_is_the_pinned_cells(monkeypatch, tmp_path):
    """With no app named, the watchdog measures exactly the cells of
    ``CELLS``, in table order: every app at its defaults at seeds 0, 1
    and 2, then the tier-1 cells on both backends."""
    import repro.bench.history as history

    monkeypatch.setattr(history, "measure", lambda app, seed, **params:
                        BenchRecord(app=app, seed=seed, config=params))
    pairs, written = run_watchdog(str(tmp_path))
    assert [dict(r.config, app=r.app, seed=r.seed) for r, _ in pairs] == \
        list(CELLS)
    assert not written and all(pin is None for _, pin in pairs)
    assert [(c["app"], c["backend"], c["seed"], c.get("workers", 4))
            for c in CELLS] == [
        *((app, "parsec", seed, 4) for app in ("potrf", "fw", "bspmm", "mra")
          for seed in (0, 1, 2)),
        *((app, backend, 0, 60) for app in ("potrf", "fw", "bspmm")
          for backend in ("parsec", "madness"))]


def test_cli_check_regressions_passes_then_fails_on_injection(
        tmp_path, capsys):
    d = str(tmp_path)
    committed = BenchHistory.load_app("potrf", str(ROOT))
    path = committed.save(directory=d)
    text = path.read_text()
    args = ["--check-regressions", "--history-dir", d, "--apps", "potrf"]
    assert bench_main(args) == 0
    assert "all 5 cell(s) match their committed records" in \
        capsys.readouterr().out
    assert list(tmp_path.iterdir()) == [path]   # a check writes nothing
    assert path.read_text() == text

    # Editing one committed record fails the check and names that cell
    # and the field.
    seed1 = [r for r in committed.records
             if r.seed == 1 and r.config["workers"] == 4][-1]
    seed1.tasks_by_template["GEMM"] += 1
    committed.save(directory=d)
    code = bench_main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert "PIN MOVED: 1 of 5 cell(s)" in captured.err
    assert ("MOVED potrf  seed 1  parsec|b=128,machine=hawk,n=1024,nodes=4,"
            "workers=4  moved: tasks_by_template\n") in captured.out


def test_cli_rejects_an_empty_app_list(capsys):
    with pytest.raises(SystemExit):
        bench_main(["--check-regressions", "--apps", ""])
    assert "empty app list" in capsys.readouterr().err


def test_cli_requires_experiment_or_watchdog_flag(capsys):
    with pytest.raises(SystemExit):
        bench_main([])


def test_protocol_gate_catches_splitmd_to_eager_fallback(tmp_path, capsys):
    """The failure mode: a serialization change moves payloads between
    protocols while the makespan does not move.  The byte split alone
    must fail the pin, and the watchdog must name it."""
    d = str(tmp_path)
    fresh = measure("potrf", 0)
    stored = BenchRecord.from_dict(fresh.as_dict())
    stored.bytes_by_protocol = {"eager": sum(fresh.bytes_by_protocol.values())}
    BenchHistory("potrf", [stored]).save(directory=d)

    code = bench_main(["--check-regressions", "--explain", "--history-dir", d,
                       "--apps", "potrf"])
    out = capsys.readouterr().out
    assert code == 1
    assert "MOVED potrf  seed 0  parsec|" in out
    assert "workers=4  moved: bytes_by_protocol\n" in out
    assert "root cause" not in out           # makespan equal: no what-if
    rc = json.loads((tmp_path / "rootcause-potrf.json").read_text())
    assert rc["explanation"] is None
    assert rc["diff"]["makespan"]["delta"] == 0.0
    assert {row["channel"] for row in rc["diff"]["bytes_by_protocol"]} == \
        {"eager", "splitmd"}


# --------------------------------------------------- measurement matrix


def test_measure_cell_matches_direct_measurement():
    direct = measure("potrf", 0).as_dict()
    via_cell = measure_cell({"app": "potrf", "seed": 0}).as_dict()
    assert via_cell == direct
    with pytest.raises(ValueError, match="unknown watchdog app"):
        measure_cell({"app": "nope", "seed": 0})


def test_app_table_config_round_trips():
    """A record's config maps back to the parameters it was measured
    with -- the what-if replay depends on it (bspmm stores ``tile``)."""
    from repro.bench.history import APPS, COMMON_PARAMS

    for app, row in APPS.items():
        params = dict(COMMON_PARAMS, **row.params)
        config = row.config(params)
        assert config["machine"] == "hawk"
        assert row.params_of(config) == params, app
    assert APPS["bspmm"].config(dict(COMMON_PARAMS, natoms=30,
                                     target_tile=24))["tile"] == 24
