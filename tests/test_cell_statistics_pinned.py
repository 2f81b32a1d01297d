"""Exact simulated statistics of one small POTRF, FW and BSPMM cell.

MRA has ``test_mra_cell_statistics_pinned``; these are the other three
apps.  Each cell is a tier-1 entry of ``repro.bench.history.CELLS`` (Hawk's
60 workers per node on 4 nodes), measured through its ``APPS`` row with
telemetry attached, and every field of the record -- makespan, task and
byte breakdowns, ``events_processed``, deliveries, messages, copies,
broadcast coverage -- must equal the newest committed record of the cell
in ``BENCH_<app>.json``: a host-time optimisation may not move a single
simulated number, with or without the run loop's observer hooks armed.
A change that moves one on purpose appends new records with
``python -m repro.bench --check-regressions --record-history``.
``tests/test_hot_path_budget.py`` profiles the same cells.
"""

from pathlib import Path

import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.bench.history import (
    APPS,
    CELLS,
    COMMON_PARAMS,
    BenchHistory,
    measure_cell,
    moved_fields,
)
from repro.core.graph import add_construction_observer, remove_construction_observer

ROOT = Path(__file__).resolve().parents[1]

#: the tier-1 cells of CELLS, by (app, backend)
TIER1 = {(c["app"], c["backend"]): c for c in CELLS if c.get("workers") == 60}

NRANKS = COMMON_PARAMS["nodes"]


def _driver(app):
    """Run ``app``'s tier-1 cell through its APPS row on a given backend."""
    cell, row = TIER1[app, "parsec"], APPS[app]
    p = row.parameters({k: v for k, v in cell.items()
                        if k not in ("app", "backend", "seed")})
    return lambda backend: row.driver(row.inputs(cell["seed"], p), backend, p)


potrf_cell = _driver("potrf")
fw_cell = _driver("fw")
bspmm_cell = _driver("bspmm")


#: The hooks axis.  ``"seq"`` runs the bare loop.  ``"armed"`` runs it with
#: its one periodic hook, ``on_checkpoint``, firing before every heap entry
#: (far more often than a digest trail arms it), and with a collect-mode
#: sanitizer armed on the executable, whose wrapped deliveries and spawns
#: must see every task and report nothing.
LOOPS = ("seq", "armed")


def assert_cell_matches_its_record(app, backend, loop):
    fired, sanitizers = [], []

    def arm(kind, obj):
        if kind == "executable" and loop == "armed":
            obj.backend.engine.on_checkpoint = lambda now, n: fired.append(n)
            obj.backend.engine.checkpoint_every = 1
            # Construction compiles the delivery after its observers.
            obj.sanitizer = obj.backend.sanitizer = Sanitizer(obj)
            sanitizers.append(obj.sanitizer)

    add_construction_observer(arm)
    try:
        fresh = measure_cell(TIER1[app, backend])
    finally:
        remove_construction_observer(arm)
    assert bool(fired) == (loop == "armed")
    assert [f for s in sanitizers for f in s.findings] == []
    if sanitizers:
        assert sum(len(s._fired) for s in sanitizers) == fresh.tasks_total
    pin = BenchHistory.load_app(app, str(ROOT)).pin(fresh)
    assert pin is not None, f"{fresh.config_key} has no committed record"
    assert moved_fields(pin, fresh) == [], fresh.config_key


BACKENDS = pytest.mark.parametrize("backend", ["parsec", "madness"],
                                   ids=["ParsecBackend", "MadnessBackend"])


@pytest.mark.parametrize("loop", LOOPS)
@BACKENDS
def test_potrf_cell_statistics_pinned(backend, loop):
    assert_cell_matches_its_record("potrf", backend, loop)


@pytest.mark.parametrize("loop", LOOPS)
@BACKENDS
def test_fw_cell_statistics_pinned(backend, loop):
    assert_cell_matches_its_record("fw", backend, loop)


@pytest.mark.parametrize("loop", LOOPS)
@BACKENDS
def test_bspmm_cell_statistics_pinned(backend, loop):
    assert_cell_matches_its_record("bspmm", backend, loop)
