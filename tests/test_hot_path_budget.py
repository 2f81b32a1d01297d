"""A deterministic guard on the message -> task hot path.

Host time of every workload is the constant factor of the send / deliver /
fire / dispatch path (docs/simulator.md, "Performance notes").  Wall-clock
gates are noisy, so this guard counts instead: the small POTRF and BSPMM
cells of ``test_cell_statistics_pinned.py`` (tier-1 entries of
``repro.bench.history.CELLS``) and one FW cell with Fig 8's b=32 tiles
run under ``cProfile`` and the
number of *calls of functions defined in ``src/repro``* per simulated task
must stay under a budget.  The count repeats exactly from run to run; it
leaves out C built-ins, NumPy and the standard library, and comprehension
frames (inlined since Python 3.12), so that one budget serves every
interpreter and NumPy version.  Nothing here reads a clock.

Each cell also runs with ``Telemetry(capacity=None)`` attached: what the
observer *adds* per task is the cost of watching, budgeted in all and at
the runtime's hook sites.  Without telemetry, each layer has its own
budget too, so a regression names its layer.

The budgets are 5 % above the measured calls per task (Python 3.11).
History: 116.6 / 91.1 (POTRF / BSPMM) before the one-evaluation-per-message
rework, 80.6 / 64.1 after it, 67.8 / 49.8 once the heap entry became the
event and the per-event and per-message wrapper frames went, 61.9 / 42.0
once quiescence became a check of the drained state instead of counting
every task and message, 52.2 / 38.9 once splitmd metadata was encoded and
decoded once per distinct value, a known splitmd class skipped the
protocol walk and dispatch tested the ready container itself.  The
observer added 55.6 / 47.6 (15.0 / 15.0 at the runtime's hook sites)
until it recorded one entry per broadcast, shared record heads, resolved
metric handles once and sampled the ready queues at the pool's own push
and pop sites: 23.0 / 18.5 (4.8 / 4.6); then 21.6 / 17.4 (3.8 / 3.6)
until the race checks moved into the sanitizer and the observer stopped
stamping data tokens on dependency and task records: 18.3 / 14.0
(3.8 / 3.6); then 10.4 / 9.0 (2.6 / 2.5) once the hooks stopped feeding a
live metrics registry and recorded events only.  Compiling the template
graph once at binding, one object per spawned task and flat per-rank logs
took the cells to 44.4 / 33.1 (observer 4.6 / 4.2, hook sites 0.6 / 0.5);
the FW cell (b=32, Fig 8's path) joined then at 46.0 (parent 52.9).
Packing a broadcast's value once for all its destination ranks took
them to 43.03 / 33.05 / 41.87 (POTRF / BSPMM / FW; FW's
comm+serialization 7.38 -> 3.94).  One compiled delivery for every
template, streaming ones included, took them to 42.98 / 32.51 / 41.86
(BSPMM's core 8.96 -> 8.42).
A change that adds a call per message to the common path trips them;
raise a budget only with a measured reason.

The same runs check that a finished plain cell is freed by reference
counting: after a warm-up, one run on each backend with the cyclic
collector off leaves nothing for ``gc.collect()`` (the template graph
and the backend hold no reference cycles).

Memory and set-up time are end-to-end metrics too, and a process's
footprint follows what it imports: SciPy alone pulls in ~300 modules and
~21 MiB of peak RSS.  ``test_figure_cells_do_not_import_scipy`` runs one
cell of each app in a fresh interpreter and checks that none reaches it;
only real-data TRSM tiles (``linalg.kernels.trsm``) may import SciPy.
"""

import cProfile
import gc
import os
import pstats
import subprocess
import sys

import pytest

import repro
from repro.bench.history import APPS
from repro.runtime import MadnessBackend, ParsecBackend
from repro.sim.cluster import HAWK, Cluster
from repro.telemetry import Telemetry

from tests.test_cell_statistics_pinned import NRANKS, bspmm_cell, potrf_cell


def fw_cell(backend):
    """Fig 8's path: FW with b=32 tiles, n=512, on 16 ranks."""
    row = APPS["fw"]
    p = row.parameters({"n": 512, "b": 32, "nodes": backend.nranks})
    row.driver(row.inputs(0, p), backend, p)


#: ranks of a cell's backend, when not NRANKS
RANKS = {"fw": 16}

_PACKAGE = os.path.dirname(repro.__file__) + os.sep

#: the packages behind each layer budget ("total" and "observer": all)
LAYERS = {"total": None, "sim": ("sim",), "runtime": ("runtime",),
          "core": ("core",), "comm+serialization": ("comm", "serialization"),
          "observer": None, "observer:runtime": ("runtime",)}

#: calls of repro-defined functions per simulated task; "observer*" count
#: what attaching Telemetry(capacity=None) adds
BUDGETS = {
    "potrf": (potrf_cell, {"total": 45.2, "sim": 6.4, "runtime": 9.6,
                           "core": 7.4, "comm+serialization": 4.1,
                           "observer": 4.9, "observer:runtime": 0.7}),
    "bspmm": (bspmm_cell, {"total": 34.2, "sim": 4.2, "runtime": 8.4,
                           "core": 8.9, "comm+serialization": 2.1,
                           "observer": 4.4, "observer:runtime": 0.6}),
    "fw": (fw_cell, {"total": 44.0, "sim": 5.3, "runtime": 9.5,
                     "core": 9.1, "comm+serialization": 4.2,
                     "observer": 2.9, "observer:runtime": 0.2}),
}


def profiled_calls(cell, observed=False, nranks=NRANKS,
                   backend_cls=ParsecBackend):
    """(calls per repro-defined function, simulated tasks) of one run."""
    telemetry = Telemetry(nranks, capacity=None) if observed else None
    backend = backend_cls(Cluster(HAWK, nranks), telemetry=telemetry)
    profile = cProfile.Profile()
    profile.enable()
    cell(backend)
    profile.disable()
    calls = {
        f"{os.path.relpath(filename, _PACKAGE)}:{line}:{name}": ncalls
        for (filename, line, name), (_, ncalls, _, _, _)
        in pstats.Stats(profile).stats.items()
        if filename.startswith(_PACKAGE) and not name.endswith("comp>")
    }
    return calls, backend.stats.tasks_executed


def unreachable_after(run):
    """``run()``'s result and the objects a full collection then finds
    unreachable.  Collections are off while it runs, so 0 means that all
    it made and dropped was freed by reference counting."""
    gc.collect()
    gc.disable()
    try:
        return run(), gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_calls_per_task_stay_under_budget(name):
    cell, budgets = BUDGETS[name]
    nranks = RANKS.get(name, NRANKS)
    # Warm-up: lazy imports, per-class memos, first uses of inspect/ast.
    profiled_calls(cell, observed=True, nranks=nranks)
    # A finished plain cell leaves nothing to the cyclic collector, on
    # either backend: the template graph and the backend hold no cycles.
    _, left = unreachable_after(lambda: profiled_calls(
        cell, nranks=nranks, backend_cls=MadnessBackend))
    assert left == 0, f"{name} on MadnessBackend left {left} unreachable"
    (first, tasks), left = unreachable_after(
        lambda: profiled_calls(cell, nranks=nranks))
    assert left == 0, f"{name} on ParsecBackend left {left} unreachable"
    second, tasks_again = profiled_calls(cell, nranks=nranks)
    assert tasks == tasks_again
    assert sum(first.values()) == sum(second.values()), "run is not repeatable"
    observed, tasks_observed = profiled_calls(cell, observed=True,
                                              nranks=nranks)
    assert tasks_observed == tasks
    added = {fn: observed.get(fn, 0) - first.get(fn, 0)
             for fn in observed.keys() | first.keys()}

    def per_task(layer):
        calls = added if layer.startswith("observer") else first
        return sum(n for fn, n in calls.items() if LAYERS[layer] is None
                   or fn.split(os.sep)[0] in LAYERS[layer]) / tasks

    over = {layer: round(per_task(layer), 2) for layer in budgets
            if per_task(layer) > budgets[layer]}
    top = sorted(first.items(), key=lambda kv: -kv[1])[:10]
    top_added = sorted(added.items(), key=lambda kv: -kv[1])[:10]
    assert not over, (
        f"{name}: calls of repro functions per simulated task exceed the "
        f"budgets {budgets} in {over} ({tasks} tasks); most called:\n"
        + "\n".join(f"  {n:7d}  {fn}" for fn, n in top)
        + "\nmost added by the observer:\n"
        + "\n".join(f"  {n:7d}  {fn}" for fn, n in top_added)
    )


#: one cell of each app, in a fresh interpreter; prints the SciPy modules
#: loaded afterwards (none expected)
_NO_SCIPY_SCRIPT = """
import sys
from repro.bench.figures import fig9_fw_seawulf, fig13a_mra_seawulf
from repro.runtime import ParsecBackend
from repro.sim.cluster import HAWK, Cluster
from tests.test_cell_statistics_pinned import NRANKS, bspmm_cell, potrf_cell

fig13a_mra_seawulf(max_nodes=2)
fig9_fw_seawulf(max_nodes=2, n=256)
potrf_cell(ParsecBackend(Cluster(HAWK, NRANKS)))
bspmm_cell(ParsecBackend(Cluster(HAWK, NRANKS)))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_figure_cells_do_not_import_scipy():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(_PACKAGE.rstrip(os.sep)), root,
                    env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]", (
        "SciPy was imported on the run path: " + proc.stdout[:2000]
    )
