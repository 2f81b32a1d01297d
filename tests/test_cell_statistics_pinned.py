"""Exact simulated statistics of one small POTRF, FW and BSPMM cell.

MRA has ``test_mra_cell_statistics_pinned``; these are the other three
apps.  The literals were recorded on the commit *before* the message path
was reworked (owner-rank passthrough, counted readiness): a host-time
optimisation may not move a single simulated number, on either engine.
``tests/test_hot_path_budget.py`` profiles the same cells.
"""

import pytest

from repro.apps.bspmm import bspmm_ttg
from repro.apps.cholesky import cholesky_ttg
from repro.apps.floydwarshall import floyd_warshall_ttg
from repro.linalg import BlockCyclicDistribution, TiledMatrix, yukawa_blocksparse
from repro.runtime import MadnessBackend, ParsecBackend
from repro.sim.cluster import HAWK, Cluster
from repro.sim.sharded import ENGINE_KINDS

NRANKS = 4


def _synthetic_matrix():
    return TiledMatrix(1024, 128, BlockCyclicDistribution.for_ranks(NRANKS),
                       synthetic=True)


def potrf_cell(backend):
    return cholesky_ttg(_synthetic_matrix(), backend)


def fw_cell(backend):
    return floyd_warshall_ttg(_synthetic_matrix(), backend)


def bspmm_cell(backend):
    a = yukawa_blocksparse(8, target_tile=24, seed=0)
    return bspmm_ttg(a, a, backend)


def cell_statistics(drive, backend_cls, engine):
    backend = backend_cls(Cluster.with_engine(HAWK, NRANKS, engine))
    res = drive(backend)
    s = backend.stats
    return {
        "makespan": repr(res.makespan),
        "tasks_by_template": dict(s.tasks_by_template),
        "bytes_by_protocol": dict(s.bytes_by_protocol),
        "events_processed": backend.engine.events_processed,
        "local_deliveries": s.local_deliveries,
        "remote_messages": s.remote_messages,
        "copies": s.copies,
        "broadcast_keys_covered": s.broadcast_keys_covered,
    }


_POTRF_TASKS = {"INITIATOR": 4, "POTRF": 8, "RESULT": 36, "TRSM": 28,
                "SYRK": 28, "GEMM": 56}
_FW_TASKS = {"INITIATOR": 4, "FW_A": 8, "FW_B": 56, "FW_C": 56, "FW_D": 392,
             "RESULT": 64}
_BSPMM_TASKS = {"READ_GATE": 8, "COORDINATOR": 32, "C_INIT": 4,
                "READ_SP_A": 64, "READ_SP_B": 64, "BCAST_A": 64, "BCAST_B": 64,
                "LSTORE_A": 128, "LSTORE_B": 128, "LBCAST_A": 128,
                "LBCAST_B": 128, "MULTIPLY_ADD": 512, "WRITE_C": 64}

BACKENDS = [ParsecBackend, MadnessBackend]


@pytest.mark.parametrize("engine", ENGINE_KINDS)
@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_potrf_cell_statistics_pinned(backend_cls, engine):
    parsec = backend_cls is ParsecBackend
    assert cell_statistics(potrf_cell, backend_cls, engine) == {
        "makespan": ("0.0026151797733333327" if parsec
                     else "0.003322536719999998"),
        "tasks_by_template": _POTRF_TASKS,
        "bytes_by_protocol": ({"splitmd": 7348856} if parsec
                              else {"madness": 7341856}),
        "events_processed": 538 if parsec else 426,
        "local_deliveries": 210,
        "remote_messages": 56,
        "copies": 36 if parsec else 184,
        "broadcast_keys_covered": 204,
    }


@pytest.mark.parametrize("engine", ENGINE_KINDS)
@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_fw_cell_statistics_pinned(backend_cls, engine):
    parsec = backend_cls is ParsecBackend
    assert cell_statistics(fw_cell, backend_cls, engine) == {
        "makespan": ("0.006181482946666657" if parsec
                     else "0.008514108640000007"),
        "tasks_by_template": _FW_TASKS,
        "bytes_by_protocol": ({"splitmd": 16801408} if parsec
                              else {"madness": 16785408}),
        "events_processed": 1924 if parsec else 1668,
        "local_deliveries": 960,
        "remote_messages": 128,
        "copies": 120 if parsec else 496,
        "broadcast_keys_covered": 896,
    }


@pytest.mark.parametrize("engine", ENGINE_KINDS)
@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_bspmm_cell_statistics_pinned(backend_cls, engine):
    parsec = backend_cls is ParsecBackend
    assert cell_statistics(bspmm_cell, backend_cls, engine) == {
        "makespan": ("7.016493999999994e-05" if parsec
                     else "8.724931666666668e-05"),
        "tasks_by_template": _BSPMM_TASKS,
        "bytes_by_protocol": {"control": 8704,
                              "generic" if parsec else "madness": 332992},
        "events_processed": 4592 if parsec else 4464,
        "local_deliveries": 2832,
        "remote_messages": 244,
        "copies": 256 if parsec else 1024,
        "broadcast_keys_covered": 1664,
    }
