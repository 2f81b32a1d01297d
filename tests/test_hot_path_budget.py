"""A deterministic guard on the message -> task hot path.

Host time of every workload is the constant factor of the send / deliver /
fire / dispatch path (docs/simulator.md, "Performance notes").  Wall-clock
gates are noisy, so this guard counts instead: the small POTRF and BSPMM
cells of ``test_cell_statistics_pinned.py`` run under ``cProfile`` and the
number of *calls of functions defined in ``src/repro``* per simulated task
must stay under a budget.  The count repeats exactly from run to run; it
leaves out C built-ins, NumPy and the standard library, and comprehension
frames (inlined since Python 3.12), so that one budget serves every
interpreter and NumPy version.  Nothing here reads a clock.

The budgets are 5 % above the measured calls per task (Python 3.11).
History: 116.6 / 91.1 (POTRF / BSPMM) before the one-evaluation-per-message
rework, 80.6 / 64.1 after it, 67.8 / 49.8 once the heap entry became the
event and the per-event and per-message wrapper frames went, 61.9 / 42.0
once quiescence became a check of the drained state instead of counting
every task and message.  A change that adds a call per message to the
common path trips them; raise a budget only with a measured reason.
"""

import cProfile
import os
import pstats

import pytest

import repro
from repro.runtime import ParsecBackend
from repro.sim.cluster import HAWK, Cluster

from tests.test_cell_statistics_pinned import NRANKS, bspmm_cell, potrf_cell

_PACKAGE = os.path.dirname(repro.__file__) + os.sep

#: calls of repro-defined functions per simulated task
BUDGETS = {"potrf": (potrf_cell, 65.0), "bspmm": (bspmm_cell, 44.1)}


def profiled_calls(cell):
    """(calls per repro-defined function, simulated tasks) of one run."""
    backend = ParsecBackend(Cluster(HAWK, NRANKS))
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


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_calls_per_task_stay_under_budget(name):
    cell, budget = BUDGETS[name]
    profiled_calls(cell)  # lazy imports and per-class memos fill here
    first, tasks = profiled_calls(cell)
    second, tasks_again = profiled_calls(cell)
    assert tasks == tasks_again
    assert sum(first.values()) == sum(second.values()), "run is not repeatable"
    per_task = sum(first.values()) / tasks
    top = sorted(first.items(), key=lambda kv: -kv[1])[:10]
    assert per_task <= budget, (
        f"{name}: {per_task:.1f} calls of repro functions per simulated task "
        f"exceed the budget of {budget} ({tasks} tasks); most called:\n"
        + "\n".join(f"  {n:7d}  {fn}" for fn, n in top)
    )
