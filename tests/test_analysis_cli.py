"""Tests for the ``python -m repro.analysis`` CLI."""

import io
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.cli import lint_file, main, parse_waivers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "examples")

FAST_EXAMPLES = ["quickstart.py", "sending_modes.py", "ptg_wavefront.py"]


def run_cli(args):
    out = io.StringIO()
    code = main(args, stream=out)
    return code, out.getvalue()


# ----------------------------------------------------------------- examples


@pytest.mark.parametrize("example", FAST_EXAMPLES)
def test_examples_lint_clean(example):
    code, out = run_cli([os.path.join(EXAMPLES, example)])
    assert code == 0, out
    assert "FAIL" not in out
    assert "0 error(s), 0 warning(s)" in out


def test_quickstart_report_shape():
    code, out = run_cli([os.path.join(EXAMPLES, "quickstart.py")])
    assert code == 0
    assert out.startswith("== repro.analysis ==")
    assert "graphs: 1 (quickstart(nranks=4))" in out


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis",
         os.path.join(EXAMPLES, "quickstart.py")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok: 0 error(s)" in proc.stdout


# ------------------------------------------------------------- broken scripts


BROKEN = textwrap.dedent(
    """
    from repro import core as ttg

    ei = ttg.Edge("ik", key_type=int)
    es = ttg.Edge("sk", key_type=str)
    noop = lambda key, *a: None
    a = ttg.make_tt(noop, [], [ei], name="A")
    b = ttg.make_tt(noop, [], [es], name="B")
    c = ttg.make_tt(noop, [ei, es], [], name="C")
    g = ttg.TaskGraph([a, b, c], name="broken")
    """
)


def test_broken_graph_fails_with_rule_id(tmp_path):
    script = tmp_path / "broken.py"
    script.write_text(BROKEN)
    code, out = run_cli([str(script)])
    assert code == 1
    assert "TTG003" in out
    assert "FAIL" in out
    assert "hint:" in out


def test_warning_only_passes_unless_strict(tmp_path):
    script = tmp_path / "dangle.py"
    script.write_text(textwrap.dedent(
        """
        from repro import core as ttg
        e = ttg.Edge("dangling", key_type=int)
        src = ttg.make_tt(lambda key, outs: None, [], [e], name="SRC")
        g = ttg.TaskGraph([src])
        """
    ))
    code, out = run_cli([str(script)])
    assert code == 0
    assert "TTG002" in out
    code, _ = run_cli(["--strict", str(script)])
    assert code == 1


def test_waiver_comment_suppresses_rule(tmp_path):
    # Waived-only findings exit 2, not 0: the graph passes, but only by
    # explicit acknowledgment (see the exit-code contract in cli.py).
    script = tmp_path / "waived.py"
    script.write_text(BROKEN + "\n# ttg-lint: disable=TTG003\n")
    code, out = run_cli([str(script)])
    assert code == 2, out
    assert "waived: TTG003" in out
    assert "suppressed by waivers: 1 finding(s) (TTG003 x1)" in out
    assert "ok (waived): 0 error(s)" in out


def test_crashing_script_fails(tmp_path):
    script = tmp_path / "crash.py"
    script.write_text("raise RuntimeError('boom')\n")
    code, out = run_cli([str(script)])
    assert code == 1
    assert "script failed to run" in out
    assert "boom" in out


def test_missing_file_fails():
    code, out = run_cli(["/no/such/file.py"])
    assert code == 1
    assert "cannot read" in out


# ------------------------------------------------------------------ plumbing


def test_parse_waivers():
    src = "# ttg-lint: disable=TTG001\nx = 1  # ttg-lint: disable=TTG004, TTG005\n"
    assert parse_waivers(src) == ("TTG001", "TTG004", "TTG005")
    assert parse_waivers("x = 1\n") == ()


def test_lint_file_records_bound_nranks(tmp_path):
    script = tmp_path / "bound.py"
    script.write_text(textwrap.dedent(
        """
        from repro import core as ttg
        from repro.runtime import ParsecBackend
        from repro.sim import Cluster, HAWK
        e = ttg.Edge("ab", key_type=int, value_type=int)
        a = ttg.make_tt(lambda key, outs: None, [], [e], name="A")
        b = ttg.make_tt(lambda key, v, outs: None, [e], [], name="B")
        g = ttg.TaskGraph([a, b], name="bound")
        ex = g.executable(ParsecBackend(Cluster(HAWK, 8)))
        """
    ))
    report = lint_file(str(script))
    assert report.crash is None
    assert len(report.graphs) == 1
    assert list(report.nranks.values()) == [8]
    assert report.findings == []


# ------------------------------------------------------ waivers on TTG rules


IMPURE = textwrap.dedent(
    """
    from repro import core as ttg

    placement = {}
    e = ttg.Edge("x", key_type=int, value_type=int)
    g = ttg.TaskGraph([
        ttg.make_tt(lambda key, outs: None, [], [e], name="GEN"),
        ttg.make_tt(lambda key, v, outs: None, [e], [], name="SINK",
                    keymap=lambda k: placement.get(k, 0)),
    ], name="impure")
    """
)


def test_impure_map_fails_only_under_strict(tmp_path):
    script = tmp_path / "impure.py"
    script.write_text(IMPURE)
    code, out = run_cli([str(script)])
    assert code == 0, out
    assert "TTG011 map-impure-capture [warning] x1" in out
    assert "impure/SINK.keymap: captures mutable data (dict)" in out
    code, out = run_cli(["--strict", str(script)])
    assert code == 1
    assert "FAIL" in out


def test_file_waiver_on_warning_exits_waived(tmp_path):
    script = tmp_path / "waived.py"
    script.write_text(IMPURE + "\n# ttg-lint: disable=TTG011\n")
    code, out = run_cli(["--strict", str(script)])
    assert code == 2, out
    assert "suppressed by waivers: 1 finding(s) (TTG011 x1)" in out
    assert "ok (waived)" in out


def test_expired_template_waiver_is_called_out(tmp_path):
    script = tmp_path / "expired.py"
    script.write_text(
        BROKEN + "\nc.lint_waive('TTG003', expires='2001-01-01')\n"
    )
    code, out = run_cli([str(script)])
    assert code == 1  # the expired waiver no longer suppresses
    assert "EXPIRED waiver: C.lint_waive('TTG003')" in out
    assert "TTG003 key-type-conflict [error] x1" in out


def test_json_artifact(tmp_path):
    import json

    script = tmp_path / "broken.py"
    script.write_text(BROKEN)
    artifact = tmp_path / "report.json"
    code, _ = run_cli([str(script), "--json", str(artifact)])
    payload = json.loads(artifact.read_text())
    assert payload["schema"] == "repro.analysis/report-v1"
    assert payload["exit_code"] == code == 1
    assert payload["files"][0]["findings"][0]["rule"] == "TTG003"
    assert set(payload) == {"schema", "files", "exit_code"}


def test_requires_some_input():
    with pytest.raises(SystemExit):
        run_cli([])


def test_script_stdout_is_captured_not_leaked(tmp_path, capsys):
    script = tmp_path / "noisy.py"
    script.write_text("print('SCRIPT NOISE')\n")
    code, out = run_cli([str(script)])
    assert code == 0
    assert "SCRIPT NOISE" not in out
    assert "SCRIPT NOISE" not in capsys.readouterr().out
    code, out = run_cli(["--verbose", str(script)])
    assert "SCRIPT NOISE" in out
