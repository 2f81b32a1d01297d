"""Deterministic what-if profiler: exact counterfactual replay.

The load-bearing property is *exactness*: the simulator is bit-for-bit
deterministic, so a cost-override probe answers Coz's causal question
with zero tolerance -- an injected ``1/f`` slowdown replayed under an
``f`` speedup reproduces the unperturbed baseline makespan *exactly*
(``==`` on floats, no approx).
"""

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.history import BenchHistory, measure, moved_fields
from repro.sim.cluster import CostOverrides
from repro.telemetry import whatif
from repro.telemetry.whatif import (
    explain,
    format_sensitivity,
    parse_factor,
    replay_record,
    sensitivity,
)

_SMALL = dict(nodes=2, n=512, b=128, workers=2)


def _clean(seed=0):
    return measure("potrf", seed, **_SMALL)


def _slowed(seed=0, template="TRSM", factor=2.0):
    return measure("potrf", seed,
                   overrides={"speedups": {template: 1.0 / factor}}, **_SMALL)


# ------------------------------------------------------------ CostOverrides


def test_parse_factor():
    assert parse_factor("GEMM=2") == ("GEMM", 2.0)
    assert parse_factor("TRSM=0.5") == ("TRSM", 0.5)
    for bad in ("GEMM", "=2", "GEMM=0", "GEMM=-1"):
        with pytest.raises(ValueError):
            parse_factor(bad)


def test_overrides_validate_and_normalize():
    with pytest.raises(ValueError):
        CostOverrides(speedups={"T": 0.0})
    with pytest.raises(ValueError):
        CostOverrides(latency_scale=-1.0)
    assert CostOverrides().is_null
    assert CostOverrides.coerce(None) is None
    assert CostOverrides.coerce({"speedups": {"T": 1.0}}) is None  # neutral
    ov = CostOverrides.coerce({"speedups": {"T": 0.5}})
    assert ov is not None and ov.speedups["T"] == 0.5


def test_overrides_compose_is_exactly_invertible():
    slow = CostOverrides(speedups={"T": 0.5}, latency_scale=2.0)
    fast = CostOverrides(speedups={"T": 2.0}, latency_scale=0.5)
    composed = slow.compose(fast)
    # 0.5 * 2.0 == 1.0 exactly (powers of two are float-exact), so the
    # composition is the null override and coerces away entirely.
    assert composed.is_null
    assert CostOverrides.coerce(composed) is None


def test_overrides_dict_roundtrip_omits_neutral_fields():
    ov = CostOverrides(speedups={"B": 0.5, "A": 2.0})
    d = ov.as_dict()
    assert d == {"speedups": {"A": 2.0, "B": 0.5}}
    assert CostOverrides.from_dict(d) == ov


# ----------------------------------------------------------- record replay


def test_injected_slowdown_slows_run_and_is_recorded():
    base = _clean()
    cand = _slowed()
    assert cand.makespan > base.makespan
    assert cand.cost_overrides == {"speedups": {"TRSM": 0.5}}
    assert base.cost_overrides == {}
    # Deliberate: overrides are excluded from the config key, so
    # --explain compares the regressed run with the clean one...
    assert cand.config_key == base.config_key
    # ...but the watchdog compares them: a perturbed run never matches.
    assert "cost_overrides" in moved_fields(base, cand)


def test_pure_replay_reproduces_the_record_bit_for_bit():
    base = _clean()
    rep = replay_record(base)
    assert rep.makespan == base.makespan
    assert rep.gflops == base.gflops
    assert rep.tasks_total == base.tasks_total


def test_inverse_probe_recovers_baseline_exactly():
    # The acceptance property: whatif --speedup TRSM=2 on the regressed
    # record predicts the baseline makespan with ZERO tolerance.
    base = _clean()
    cand = _slowed()
    rep = replay_record(cand, speedups={"TRSM": 2.0})
    assert rep.makespan == base.makespan
    assert rep.cost_overrides == {}   # composed overrides are null


def test_replay_can_change_rank_count():
    base = _clean()
    rep = replay_record(base, nodes=4)
    assert rep.config["nodes"] == 4
    assert rep.makespan != base.makespan


# ----------------------------------------------------------------- explain


def test_explain_ranks_injected_template_first_with_majority_share():
    base = _clean()
    cand = _slowed(template="TRSM", factor=2.0)
    exp = explain(base, cand, factor=2.0)
    assert exp.delta > 0
    top = exp.top()
    assert top is not None
    assert top.template == "TRSM"
    assert top.share >= 0.5
    assert top.exact_baseline is True
    text = exp.format()
    assert "root cause" in text
    assert "TRSM" in text and "recovers the baseline EXACTLY" in text
    assert "accounts for" in text
    d = exp.as_dict()
    assert d["schema"] == "repro.telemetry/whatif-v1"
    assert d["attributions"][0]["template"] == "TRSM"


def test_sensitivity_sweeps_templates_network_and_ranks():
    base = _clean()
    rows = sensitivity(base, factor=2.0, templates=("GEMM", "TRSM"),
                       node_counts=(4,))
    knobs = {s.knob for s in rows}
    assert "speedup GEMM=2" in knobs and "speedup TRSM=2" in knobs
    assert "latency /2" in knobs and "bandwidth x2" in knobs
    assert "nodes 4" in knobs
    # Sorted best-first and every template speedup helps (or is neutral).
    assert [s.makespan for s in rows] == sorted(s.makespan for s in rows)
    assert all(s.makespan <= base.makespan for s in rows if s.kind == "template")
    assert "knob" in format_sensitivity(rows)


# --------------------------------------------------------------------- CLI


def _cli(*argv):
    import io

    from repro.telemetry.cli import main

    out = io.StringIO()
    code = main(list(argv), stream=out)
    return code, out.getvalue()


def test_cli_whatif_exact_inverse(tmp_path):
    base = _clean()
    cand = _slowed()
    h = BenchHistory("potrf", [base, cand])
    path = str(h.save(directory=str(tmp_path)))
    code, text = _cli("whatif", path, "--select", "last",
                      "--speedup", "TRSM=2")
    assert code == 0
    assert f"{base.makespan * 1e3:.4f} ms" in text.replace("-> ", "")
    import json as _json
    code, text = _cli("whatif", path, "--select", "last",
                      "--speedup", "TRSM=2", "--json")
    assert code == 0
    payload = _json.loads(text)
    assert payload["schema"] == "repro.telemetry/whatif-v1"
    assert payload["makespan"] == base.makespan   # exact, not approx


def test_cli_whatif_sweep_json(tmp_path):
    import json as _json

    h = BenchHistory("potrf", [_clean()])
    path = str(h.save(directory=str(tmp_path)))
    code, text = _cli("whatif", path, "--sweep", "--json")
    assert code == 0
    payload = _json.loads(text)
    assert payload["schema"] == "repro.telemetry/whatif-sweep-v1"
    knobs = {r["knob"] for r in payload["rows"]}
    assert any(k.startswith("speedup ") for k in knobs)


def test_cli_whatif_rejects_bad_probes_in_one_line(tmp_path):
    """A speedup on a template the record never ran, or a rank count
    below one, is an error line, not a silent no-op or a traceback."""
    base = _clean()
    with pytest.raises(ValueError, match="NOPE"):
        replay_record(base, speedups={"NOPE": 2.0})
    path = str(BenchHistory("potrf", [base]).save(directory=str(tmp_path)))
    for argv, needle in ((["--speedup", "NOPE=2"], "NOPE"),
                         (["--nodes", "0"], "nranks must be >= 1"),
                         (["--nodes", "-2"], "nranks must be >= 1")):
        code, text = _cli("whatif", path, *argv)
        assert code == 1
        assert text.count("\n") == 1 and needle in text, text


def test_cli_whatif_rejects_non_history(tmp_path):
    p = tmp_path / "counters.json"
    p.write_text('{"schema": "repro.telemetry/counters-v1", "counters": {}}')
    code, text = _cli("whatif", str(p))
    assert code == 1
    assert "BENCH_*.json" in text


# -------------------------------------------------- watchdog --explain


@pytest.fixture(scope="module")
def faster_trsm():
    """A potrf seed-0 record taken with TRSM twice as fast: it stands in
    for a parent commit whose TRSM cost half of what it costs now."""
    return measure("potrf", 0, overrides={"speedups": {"TRSM": 2.0}})


def test_watchdog_explain_end_to_end(tmp_path, capsys, faster_trsm):
    """Through the real CLI: a pin that moved because TRSM got 2x slower
    exits 1 with TRSM ranked first at >= 50% of the makespan delta, and
    writes the root-cause JSON artifact."""
    import json as _json

    d = str(tmp_path)
    BenchHistory("potrf", [faster_trsm]).save(directory=d)
    code = bench_main(["--check-regressions", "--history-dir", d,
                       "--apps", "potrf", "--explain"])
    captured = capsys.readouterr()
    assert code == 1
    assert "PIN MOVED: 5 of 5" in captured.err   # 4 cells have no record
    assert "MOVED potrf  seed 0  parsec|" in captured.out
    assert "moved: makespan, gflops," in captured.out
    assert "run diff:" in captured.out
    assert "root cause" in captured.out
    assert "=> TRSM accounts for" in captured.out

    rc = _json.loads((tmp_path / "rootcause-potrf.json").read_text())
    assert rc["schema"] == "repro.telemetry/rootcause-v1"
    top = rc["explanation"]["attributions"][0]
    assert top["template"] == "TRSM"
    assert top["share"] >= 0.5
    assert top["exact_baseline"] is True
    assert {row["template"] for row in rc["diff"]["templates"]} >= \
        {"POTRF", "TRSM", "SYRK", "GEMM"}
    # A record pair has task counts, not span totals: the delta is theirs.
    assert all(set(row) == {"template", "count_a", "count_b", "delta"}
               and row["delta"] == row["count_b"] - row["count_a"]
               for row in rc["diff"]["templates"])


def test_watchdog_explain_out_dir(tmp_path, capsys, faster_trsm):
    d = str(tmp_path / "hist")
    out = str(tmp_path / "artifacts")
    (tmp_path / "hist").mkdir()
    BenchHistory("potrf", [faster_trsm]).save(directory=d)
    code = bench_main(["--check-regressions", "--history-dir", d,
                       "--apps", "potrf", "--explain", "--explain-out", out])
    capsys.readouterr()
    assert code == 1
    assert (tmp_path / "artifacts" / "rootcause-potrf.json").exists()
    assert not (tmp_path / "hist" / "rootcause-potrf.json").exists()


def test_watchdog_explain_without_a_stored_record(tmp_path, capsys):
    """A cell with no committed record fails in one line, which is all
    ``--explain`` can say about it: no diff, no artifact."""
    code = bench_main(["--check-regressions", "--history-dir", str(tmp_path),
                       "--apps", "potrf", "--explain"])
    out = capsys.readouterr().out
    assert code == 1
    assert ("MOVED potrf  seed 0  parsec|b=128,machine=hawk,n=1024,"
            "nodes=4,workers=4  no committed record\n") in out
    assert out.count("no committed record") == 5
    assert "run diff" not in out
    assert not (tmp_path / "rootcause-potrf.json").exists()