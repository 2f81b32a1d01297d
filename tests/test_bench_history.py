"""Benchmark history store, robust watchdog statistics, regression CLI."""

import json

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.history import (
    BenchHistory,
    BenchRecord,
    SCHEMA,
    SCHEMA_VERSION,
    SeededBlockCyclic,
    check_history,
    classify,
    mad,
    measure,
    measure_cell,
    measure_matrix,
    median,
    robust_stats,
    run_watchdog,
)
from repro.linalg import BlockCyclicDistribution


def _rec(makespan, baseline=False, seed=0, gflops=100.0, **cfg):
    config = {"n": 1024, "b": 128, **cfg}
    return BenchRecord(app="potrf", config=config, seed=seed,
                       makespan=makespan, gflops=gflops, tasks_total=160,
                       baseline=baseline)


# ----------------------------------------------------------------- records


def test_record_round_trip():
    r = BenchRecord(app="potrf", config={"n": 512}, seed=3, makespan=0.01,
                    gflops=42.0, tasks_total=20,
                    tasks_by_template={"POTRF": 4},
                    bytes_by_protocol={"eager": 1024},
                    critical_path_fraction=0.8, idle_fraction=0.3,
                    counters={"tasks.executed|": 20.0}, git_sha="abc1234",
                    baseline=True)
    again = BenchRecord.from_dict(json.loads(json.dumps(r.as_dict())))
    assert again == r


def test_config_key_is_order_independent():
    a = BenchRecord(app="x", config={"n": 1, "b": 2})
    b = BenchRecord(app="x", config={"b": 2, "n": 1})
    assert a.config_key == b.config_key
    assert BenchRecord(app="x", config={"n": 2, "b": 2}).config_key != a.config_key


def test_history_save_load_round_trip(tmp_path):
    h = BenchHistory("potrf")
    h.append(_rec(0.01, baseline=True))
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


def test_v1_payload_migrates_to_current_schema(tmp_path):
    v1 = {
        "schema": SCHEMA,
        "version": 1,
        "app": "potrf",
        "records": [{
            "app": "potrf", "config": {"n": 1024}, "seed": 0,
            "makespan": 0.01, "gflops": 99.0, "tasks_total": 160,
            "tasks_by_template": {"POTRF": 8},
            "metrics": {"tasks.executed|": 160.0},   # v1 name for counters
            "baseline": True,
        }],
    }
    p = tmp_path / "BENCH_potrf.json"
    p.write_text(json.dumps(v1))
    h = BenchHistory.load(p)
    rec = h.records[0]
    assert rec.counters == {"tasks.executed|": 160.0}
    assert rec.bytes_by_protocol == {}
    assert rec.critical_path_fraction == 0.0
    # Saving rewrites at the current version.
    h.save(p)
    assert json.loads(p.read_text())["version"] == SCHEMA_VERSION


def test_future_schema_version_refused(tmp_path):
    p = tmp_path / "BENCH_potrf.json"
    p.write_text(json.dumps({"schema": SCHEMA, "version": SCHEMA_VERSION + 1,
                             "app": "potrf", "records": []}))
    with pytest.raises(ValueError, match="newer"):
        BenchHistory.load(p)


def test_baseline_window_and_candidates():
    h = BenchHistory("potrf")
    h.append(_rec(0.010, baseline=True, seed=0))
    h.append(_rec(0.011, seed=1))                 # pre-re-baseline candidate
    h.append(_rec(0.0102, baseline=True, seed=2))  # new baseline window
    h.append(_rec(0.012, seed=3))
    h.append(_rec(0.013, seed=4))
    key = h.records[0].config_key
    assert [r.seed for r in h.baselines(key)] == [0, 2]
    assert [r.seed for r in h.candidates(key)] == [3, 4]


# -------------------------------------------------------------- statistics


def test_median_and_mad():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert mad([1.0, 1.0, 1.0]) == 0.0
    assert mad([1.0, 2.0, 3.0]) == 1.0
    m, spread = robust_stats([10.0, 12.0, 11.0])
    assert m == 11.0 and spread == pytest.approx(1.0 * 1.4826)


def test_classify_directions():
    base = [0.010, 0.010, 0.010]
    # 30% slower on a lower-is-better metric: regression.
    assert classify(base, [0.013], 0.10, "lower")[0] == "regressed"
    # 30% faster: improvement.
    assert classify(base, [0.007], 0.10, "lower")[0] == "improved"
    # Within the 10% band: unchanged.
    assert classify(base, [0.0105], 0.10, "lower")[0] == "unchanged"
    # Higher-is-better flips the direction.
    assert classify([100.0] * 3, [70.0], 0.10, "higher")[0] == "regressed"
    assert classify([100.0] * 3, [130.0], 0.10, "higher")[0] == "improved"


def test_classify_wide_baseline_spread_absorbs_shift():
    # MAD-based margin: a noisy baseline tolerates a shift the relative
    # threshold alone would flag.
    noisy = [0.010, 0.014, 0.006]   # MAD = 0.004 -> margin ~ 0.0178
    assert classify(noisy, [0.013], 0.10, "lower")[0] == "unchanged"


def test_classify_window_of_one_is_threshold_only_and_warns():
    # n=1: MAD is degenerately 0.0.  The margin must be the pure
    # threshold term and the verdict must say so.
    status, m_b, spread, m_c, note = classify([0.010], [0.013], 0.10, "lower")
    assert status == "regressed"
    assert spread == 0.0
    assert "small baseline window (n=1" in note
    assert "threshold-only" in note
    # Inside the threshold band: unchanged, same warning.
    status, _, _, _, note = classify([0.010], [0.0105], 0.10, "lower")
    assert status == "unchanged"
    assert "small baseline window" in note


def test_classify_window_of_two_drops_the_spread_term():
    # n=2: MAD is half the range -- not a robust scale.  A wide two-sample
    # spread must NOT absorb a > threshold shift the way a real MAD would.
    base = [0.008, 0.012]   # median 0.010, naive MAD would be 0.002
    status, _, spread, _, note = classify(base, [0.013], 0.10, "lower")
    assert status == "regressed"   # 3*1.4826*0.002 would have absorbed it
    assert spread == 0.0
    assert "small baseline window (n=2" in note


def test_classify_window_of_three_uses_mad_and_does_not_warn():
    base = [0.010, 0.014, 0.006]
    status, _, spread, _, note = classify(base, [0.013], 0.10, "lower")
    assert status == "unchanged"   # the MAD margin absorbs the shift
    assert spread > 0.0
    assert note == ""


def test_small_window_note_surfaces_in_verdict_row():
    h = BenchHistory("potrf")
    h.append(_rec(0.010, baseline=True, seed=0))   # one-sample baseline
    h.append(_rec(0.013, seed=9))
    rep = check_history(h)
    rows = [v for v in rep.verdicts if v.metric == "makespan"]
    assert rows and "small baseline window" in rows[0].note
    assert "small baseline window" in rows[0].row()
    assert "small baseline window" in rep.format()


def test_check_history_flags_injected_regression():
    h = BenchHistory("potrf")
    for seed in (0, 1, 2):
        h.append(_rec(0.010, baseline=True, seed=seed))
    ok = check_history(h)
    assert ok.ok and not ok.regressions

    h.append(_rec(0.012, seed=9))   # +20% makespan candidate
    bad = check_history(h)
    assert not bad.ok
    assert any(v.metric == "makespan" for v in bad.regressions)
    assert "regressed" in bad.format()


def test_check_history_no_baseline_is_not_gating():
    h = BenchHistory("potrf")
    h.append(_rec(0.010))           # candidate with no baseline window
    rep = check_history(h)
    assert rep.ok
    assert any(v.status == "no-baseline" for v in rep.verdicts)


# ------------------------------------------------------- seeded placement


def test_seeded_block_cyclic_rotates_ownership():
    base = BlockCyclicDistribution(2, 2)
    s0 = SeededBlockCyclic.for_ranks(4, seed=0)
    s1 = SeededBlockCyclic.for_ranks(4, seed=1)
    coords = [(i, j) for i in range(4) for j in range(4)]
    assert [s0.rank_of(i, j) for i, j in coords] == \
        [base.rank_of(i, j) for i, j in coords]
    assert [s1.rank_of(i, j) for i, j in coords] != \
        [s0.rank_of(i, j) for i, j in coords]
    # Every seed is a relabeling: each rank still owns the same tile count.
    for dist in (s0, s1):
        owners = [dist.rank_of(i, j) for i, j in coords]
        assert sorted(owners.count(r) for r in range(4)) == [4, 4, 4, 4]


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


def test_run_watchdog_update_then_check(tmp_path):
    d = str(tmp_path)
    reports, written = run_watchdog(d, apps=("potrf",), seeds=(0, 1),
                                    update_baseline=True)
    assert [p.name for p in written] == ["BENCH_potrf.json"]
    assert all(r.ok for r in reports)

    reports, written = run_watchdog(d, apps=("potrf",), seeds=(0, 1))
    assert not written                      # check-only: nothing recorded
    assert all(r.ok for r in reports)       # deterministic: identical reruns


def test_cli_check_regressions_passes_then_fails_on_injection(tmp_path, capsys):
    d = str(tmp_path)
    assert bench_main(["--update-baseline", "--history-dir", d,
                       "--apps", "potrf", "--seeds", "0,1"]) == 0
    assert bench_main(["--check-regressions", "--history-dir", d,
                       "--apps", "potrf", "--seeds", "0,1"]) == 0
    assert "no regressions" in capsys.readouterr().out

    # Inject a +20% makespan / -20% gflops run, then judge the stored
    # trailing candidates alone (--no-measure): the gate must trip.
    path = BenchHistory.path_for("potrf", d)
    h = BenchHistory.load(path)
    slow = BenchRecord.from_dict(h.records[-1].as_dict())
    slow.makespan *= 1.2
    slow.gflops /= 1.2
    slow.baseline = False
    slow.seed = 99
    h.append(slow)
    h.save(path)

    code = bench_main(["--check-regressions", "--no-measure",
                       "--history-dir", d, "--apps", "potrf"])
    captured = capsys.readouterr()
    assert code == 1
    assert "REGRESSION" in captured.err
    assert "!!" in captured.out              # regression marker rows


def test_cli_requires_experiment_or_watchdog_flag(capsys):
    with pytest.raises(SystemExit):
        bench_main([])


# -------------------------------------------------------------- schema v3


def test_v2_payload_migrates_to_current(tmp_path):
    v2 = {
        "schema": SCHEMA,
        "version": 2,
        "app": "potrf",
        "records": [{
            "app": "potrf", "config": {"n": 1024}, "seed": 0,
            "makespan": 0.01, "gflops": 99.0, "tasks_total": 160,
            "tasks_by_template": {"POTRF": 8},
            "bytes_by_protocol": {"eager": 64},
            "critical_path_fraction": 0.5, "idle_fraction": 0.2,
            "counters": {}, "baseline": True,
        }],
    }
    p = tmp_path / "BENCH_potrf.json"
    p.write_text(json.dumps(v2))
    h = BenchHistory.load(p)
    rec = h.records[0]
    # Pre-v3 runs were all sequential and did not time the host.
    assert rec.host_seconds == 0.0
    assert rec.engine == "seq"
    # Pre-v4 runs carried no cost perturbations.
    assert rec.cost_overrides == {}
    h.save(p)
    assert json.loads(p.read_text())["version"] == SCHEMA_VERSION == 4


def test_v3_payload_migrates_to_v4(tmp_path):
    v3 = {
        "schema": SCHEMA,
        "version": 3,
        "app": "potrf",
        "records": [{
            "app": "potrf", "config": {"n": 1024}, "seed": 0,
            "makespan": 0.01, "gflops": 99.0, "tasks_total": 160,
            "tasks_by_template": {"POTRF": 8},
            "bytes_by_protocol": {"eager": 64},
            "critical_path_fraction": 0.5, "idle_fraction": 0.2,
            "counters": {}, "baseline": True,
            "engine": "sharded", "host_seconds": 1.25,
        }],
    }
    p = tmp_path / "BENCH_potrf.json"
    p.write_text(json.dumps(v3))
    h = BenchHistory.load(p)
    rec = h.records[0]
    assert rec.engine == "sharded" and rec.host_seconds == 1.25
    assert rec.cost_overrides == {}
    h.save(p)
    assert json.loads(p.read_text())["version"] == SCHEMA_VERSION == 4


def test_engine_and_host_seconds_excluded_from_config_key():
    a = _rec(0.01)
    b = _rec(0.01)
    b.engine = "sharded"
    b.host_seconds = 3.5
    # Virtual metrics are engine-invariant (parity suite), so records from
    # any engine stay comparable against the stored baselines.
    assert a.config_key == b.config_key


def test_dotted_metric_indexes_dict_fields():
    r = _rec(0.01)
    r.bytes_by_protocol = {"splitmd": 4096.0, "eager": 128.0}
    assert r.metric("bytes_by_protocol.splitmd") == 4096.0
    assert r.metric("bytes_by_protocol.eager") == 128.0
    assert r.metric("bytes_by_protocol.rendezvous") == 0.0   # missing -> 0
    assert r.metric("makespan") == 0.01


def test_protocol_gate_catches_splitmd_to_eager_fallback():
    # The failure mode: a serialization regression silently routes large
    # payloads through the eager protocol.  Makespan barely moves, but the
    # protocol split must trip the gate.
    h = BenchHistory("potrf")
    for seed in (0, 1, 2):
        r = _rec(0.010, baseline=True, seed=seed)
        r.bytes_by_protocol = {"splitmd": 10000.0, "eager": 500.0}
        h.append(r)
    bad = _rec(0.010, seed=9)
    bad.bytes_by_protocol = {"splitmd": 0.0, "eager": 10500.0}
    h.append(bad)
    rep = check_history(h)
    assert not rep.ok
    flagged = {v.metric for v in rep.regressions}
    assert "bytes_by_protocol.splitmd" in flagged
    assert "bytes_by_protocol.eager" in flagged
    assert "makespan" not in flagged


def test_host_seconds_verdict_reported_but_not_gating():
    h = BenchHistory("potrf")
    for seed in (0, 1, 2):
        r = _rec(0.010, baseline=True, seed=seed)
        r.host_seconds = 2.0
        h.append(r)
    fast = _rec(0.010, seed=9)
    fast.host_seconds = 1.0   # 2x host speedup, same virtual results
    h.append(fast)
    rep = check_history(h)
    assert rep.ok                                   # never gates
    hv = [v for v in rep.verdicts if v.metric == "host_seconds"]
    assert len(hv) == 1
    assert hv[0].status == "improved" and not hv[0].gating


def test_prune_keeps_recent_per_group():
    h = BenchHistory("potrf")
    h.append(_rec(0.010, baseline=True, seed=0))
    for seed in range(1, 7):
        h.append(_rec(0.011, seed=seed))
    # A second config group must be pruned independently.
    for seed in range(3):
        h.append(_rec(0.02, seed=seed, n=2048))
    dropped = h.prune(2)
    assert dropped == 5                    # 6 -> 2 and 3 -> 2 per group
    key = _rec(0.01).config_key
    assert [r.seed for r in h.group(key)] == [0, 5, 6]
    assert h.records[0].baseline           # baselines kept unconditionally
    assert len(h.group(_rec(0.02, n=2048).config_key)) == 2


def test_prune_drop_old_baselines_keeps_active_sweep():
    h = BenchHistory("potrf")
    h.append(_rec(0.010, baseline=True, seed=0))   # superseded sweep
    h.append(_rec(0.011, seed=1))
    h.append(_rec(0.0102, baseline=True, seed=2))  # active sweep
    h.append(_rec(0.0101, baseline=True, seed=3))  # same sweep (contiguous)
    h.append(_rec(0.012, seed=4))
    dropped = h.prune(10, keep_baselines=False)
    assert dropped == 1
    assert [r.seed for r in h.records] == [1, 2, 3, 4]


def test_prune_zero_keep_and_negative(tmp_path):
    h = BenchHistory("potrf")
    h.append(_rec(0.010, baseline=True, seed=0))
    h.append(_rec(0.011, seed=1))
    with pytest.raises(ValueError):
        h.prune(-1)
    assert h.prune(0) == 1
    assert [r.seed for r in h.records] == [0]


def test_cli_prune_compacts_files(tmp_path, capsys):
    d = str(tmp_path)
    h = BenchHistory("potrf")
    h.append(_rec(0.010, baseline=True, seed=0))
    for seed in range(1, 6):
        h.append(_rec(0.011, seed=seed))
    h.save(directory=d)
    assert bench_main(["prune", "--history-dir", d, "--apps", "potrf",
                       "--keep", "2"]) == 0
    out = capsys.readouterr().out
    assert "dropped 3" in out
    assert len(BenchHistory.load(BenchHistory.path_for("potrf", d))) == 3


# --------------------------------------------------- measurement matrix


def test_measure_cell_matches_direct_measurement():
    direct = measure("potrf", 0).as_dict()
    via_cell = measure_cell({"app": "potrf", "seed": 0}).as_dict()
    for skip in ("host_seconds", "git_sha"):
        direct.pop(skip), via_cell.pop(skip)
    assert via_cell == direct
    with pytest.raises(ValueError, match="unknown watchdog app"):
        measure_cell({"app": "nope", "seed": 0})


def test_measure_matrix_records_engine_field():
    out = measure_matrix(apps=("fw",), seeds=(0,))
    assert list(out) == ["fw"]
    rec = out["fw"][0]
    assert rec.engine == "seq"
    assert rec.host_seconds > 0
    with pytest.raises(ValueError, match="'sharded'.*known: .'seq',."):
        measure_cell({"app": "fw", "seed": 0, "engine": "sharded"})


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
