"""The lint gate: the fast examples and the paper apps run clean.

Every graph here is bound with ``strict=True`` (armed by patching
``TaskGraph.executable``, so the scripts and drivers run unchanged): the
linter raises on an error finding and the sanitizer on the first runtime
fault.  On top of that each test asserts that no ``Executable`` it built
carries an error or warning lint finding, and that the templates which
pass only by ``lint_waive`` sign-off are exactly the reviewed set.

The slower examples (bspmm, mra, cholesky, fw) are covered through the
app graphs they drive, at the apps' pinned tiny cells.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

from repro.apps.bspmm import bspmm_ttg_25d
from repro.apps.cholesky import cholesky_left_looking, cholesky_ttg
from repro.apps.mra import mra_ttg, random_gaussians
from repro.core.graph import TaskGraph
from repro.linalg import BlockCyclicDistribution, TiledMatrix, yukawa_blocksparse
from repro.runtime import MadnessBackend, ParsecBackend
from repro.sim import Cluster, HAWK
from tests.test_cell_statistics_pinned import bspmm_cell, fw_cell, potrf_cell

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST = [
    "quickstart.py",
    "sending_modes.py",
]

#: ``graph/template -> waived rule ids``: the reviewed acknowledgments.
#: Each is a driver-seeded or driver-sized stream the linter cannot see.
REVIEWED_WAIVERS = {
    "bspmm/READ_GATE": ["TTG004", "TTG005"],
    "bspmm/COORDINATOR": ["TTG005"],
    "mra/PROJECT": ["TTG004"],
    "cholesky_left/ACCUM": ["TTG005"],
}


def _strict_binder(out):
    """A ``TaskGraph.executable`` that binds strict and records the result."""
    bind = TaskGraph.executable

    def strict_bind(self, backend, **_):
        ex = bind(self, backend, strict=True)
        out.append(ex)
        return ex

    return strict_bind


@pytest.fixture
def built(monkeypatch):
    """Every Executable bound during the test, each one strict."""
    out = []
    monkeypatch.setattr(TaskGraph, "executable", _strict_binder(out))
    return out


@pytest.fixture(scope="module")
def example_run():
    """Run a fast example once, in-process, with every binding strict.

    Returns ``(stdout, executables)``; repeated calls for the same script
    reuse the first run, so the run and lint tests share it.
    """
    runs = {}

    def run(script):
        if script not in runs:
            out = []
            with pytest.MonkeyPatch.context() as mp, \
                    contextlib.redirect_stdout(io.StringIO()) as stdout:
                mp.setattr(TaskGraph, "executable", _strict_binder(out))
                runpy.run_path(str(EXAMPLES / script), run_name="__main__")
            runs[script] = (stdout.getvalue(), out)
        return runs[script]

    return run


def assert_clean(executables):
    assert executables
    for ex in executables:
        loud = [str(f) for f in ex.findings if f.rule.severity != "info"]
        assert loud == [], ex.graph.name
        assert ex.sanitizer.findings == [], ex.graph.name
    names = {ex.graph.name for ex in executables}
    waived = {
        f"{ex.graph.name}/{tt.name}": sorted(tt._lint_waivers)
        for ex in executables for tt in ex.graph.tts if tt._lint_waivers
    }
    assert waived == {k: v for k, v in REVIEWED_WAIVERS.items()
                      if k.split("/")[0] in names}


@pytest.mark.parametrize("script", FAST)
def test_example_runs_clean(script, example_run):
    stdout, _ = example_run(script)
    assert "OK" in stdout


@pytest.mark.parametrize("script", FAST)
def test_examples_lint_clean(script, example_run):
    _, executables = example_run(script)
    assert_clean(executables)


def test_examples_directory_documented():
    readme = (EXAMPLES / "README.md").read_text()
    for script in EXAMPLES.glob("*.py"):
        assert script.name in readme, f"{script.name} missing from examples/README.md"


def _tiny_mra(backend):
    funcs = random_gaussians(2, d=3, exponent=200.0, seed=0)
    return mra_ttg(funcs, backend, k=4, thresh=1e-3, max_level=5)


def _summa25(backend):
    a = yukawa_blocksparse(8, target_tile=24, seed=0)
    return bspmm_ttg_25d(a, a, backend, c=2)


def _left_looking(backend):
    a = TiledMatrix(512, 128, BlockCyclicDistribution.for_ranks(4),
                    synthetic=True)
    return cholesky_left_looking(a, backend)


def _potrf_seeded(backend):
    a = TiledMatrix(512, 128, BlockCyclicDistribution.for_ranks(4, seed=1),
                    synthetic=True)
    return cholesky_ttg(a, backend)


APPS = {
    "potrf": potrf_cell,
    "potrf_seeded": _potrf_seeded,
    "fw": fw_cell,
    "bspmm": bspmm_cell,
    "mra": _tiny_mra,
    "summa25": _summa25,
    "cholesky_left": _left_looking,
}


@pytest.mark.parametrize("backend_cls", [ParsecBackend, MadnessBackend],
                         ids=["parsec", "madness"])
@pytest.mark.parametrize("app", APPS)
def test_app_graphs_strict_clean(app, backend_cls, built):
    APPS[app](backend_cls(Cluster(HAWK, 4)))
    assert_clean(built)
