"""Cholesky comparators (paper III-B, Figs. 5-6).

Two families, matching the paper's two observed groups:

**Fork-join (ScaLAPACK, SLATE)** -- right-looking factorization *without
lookahead*: every iteration k is three bulk-synchronous rounds (panel
factor, panel solve + broadcast, trailing update).  The sequential panel
and the per-iteration broadcasts/barriers bound scalability -- the paper's
explanation for their slower growth.

**Task-based (DPLASMA, Chameleon)** -- the same dynamic DAG as TTG, run
through the actual TTG Cholesky graph with backend configurations that
model each runtime's communication substrate:

- DPLASMA: PaRSEC's PTG -- identical substrate to TTG/PaRSEC, marginally
  cheaper per task (fully static task graph, no dynamic discovery).
- Chameleon (StarPU): task-based but with per-consumer (naive) data
  transfers and generic serialization -- the paper conjectures its deficit
  vs TTG/DPLASMA comes from PaRSEC's more efficient communication
  substrate, "including the collective communication".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.apps.cholesky import cholesky_ttg
from repro.baselines.bulksync import BulkSyncExecutor, Round
from repro.linalg.kernels import (
    cholesky_total_flops,
    effective_flops,
    gemm_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)
from repro.linalg.tiled_matrix import TiledMatrix
from repro.runtime.base import BackendConfig
from repro.runtime.parsec import ParsecBackend
from repro.sim.cluster import Cluster

#: The fork-join codes' own blockings: ScaLAPACK's nb and SLATE's tile.
SCALAPACK_NB = 64
SLATE_TILE = 256


@dataclass
class BaselineResult:
    """Perf summary of a baseline run."""

    name: str
    makespan: float
    gflops: float
    breakdown: Optional[Dict[str, float]] = None

    def __repr__(self) -> str:
        return f"{self.name}: {self.gflops:.1f} Gflop/s ({self.makespan:.4f}s)"


def _update_work(owner: np.ndarray, k: int, syrk: float, gemm: float) -> Dict[int, float]:
    """Per-rank flops of iteration ``k``'s trailing update, ``owner[m, n]``
    being the rank of tile (m, n).  Row by row, SYRK (m, m) comes first,
    then the GEMMs (m, n) for k < n < m; ``bincount`` adds each rank's
    kernels in that order, as a loop over the tiles would."""
    i, j = np.tril_indices(len(owner) - k - 1)
    owners = owner[i + k + 1, np.where(j == 0, i, j - 1) + k + 1]
    sums = np.bincount(owners, np.where(j == 0, syrk, gemm))
    return {int(r): float(sums[r]) for r in np.unique(owners)}


def _forkjoin_cholesky(
    cluster: Cluster,
    n: int,
    b: int,
    *,
    name: str,
    panel_workers: int,
    comm_factor: float,
    pure_mpi: bool = False,
) -> BaselineResult:
    """Shared fork-join model: 3 rounds per iteration, no lookahead.

    ``b`` is the implementation's *own* blocking (ScaLAPACK's nb, SLATE's
    tile), which sets both the round count and the kernel efficiency.
    ``panel_workers``: how many workers the panel factorization exploits
    (1 for ScaLAPACK's serial tile POTRF; several for SLATE's multithreaded
    panel).  ``comm_factor`` scales broadcast costs (implementation
    quality).  ``pure_mpi`` spreads one single-worker rank per core (the
    ScaLAPACK execution model): more grid parallelism for small blocks but
    collectives that span the whole core grid.
    """
    from repro.linalg.tiled_matrix import BlockCyclicDistribution

    nt = (n + b - 1) // b
    if pure_mpi:
        # One MPI rank per worker; each rank computes serially.
        nranks = cluster.nranks * cluster.node.workers
        rate = cluster.node.flops_per_worker

        class _SerialExec:
            def __init__(self) -> None:
                self.timeline = []

            def run(self, rounds) -> float:
                barrier = cluster.network.barrier_time(nranks)
                total = 0.0
                for r in rounds:
                    compute = max(
                        (w / rate for w in r.work.values()), default=0.0
                    )
                    total += compute + r.comm + barrier
                return total

            def breakdown(self):
                return {}

        ex = _SerialExec()
    else:
        nranks = cluster.nranks
        ex = BulkSyncExecutor(cluster)
    dist = BlockCyclicDistribution.for_ranks(nranks)
    net = cluster.network
    tile_bytes = b * b * 8
    owner = np.array([[dist.rank_of(i, j) for j in range(nt)] for i in range(nt)])
    trsm = effective_flops(trsm_flops(b), b)
    syrk = effective_flops(syrk_flops(b), b)
    gemm = effective_flops(gemm_flops(b, b, b), b)
    rounds = []
    for k in range(nt):
        owner_kk = dist.rank_of(k, k)
        # Round 1: factor the diagonal tile (limited parallelism) and
        # broadcast it down the column of waiting TRSMs.
        pf = effective_flops(potrf_flops(min(b, n - k * b)), b)
        rounds.append(
            Round(
                work={owner_kk: pf},
                critical_path={owner_kk: pf / panel_workers},
                comm=comm_factor * net.bcast_time(dist.prows, tile_bytes),
                name=f"potrf({k})",
            )
        )
        # Round 2: panel TRSMs + broadcast of the panel along rows/columns.
        # One tile TRSM occupies one worker, so the round's critical path
        # is at least a single TRSM.
        work: Dict[int, float] = {}
        tiles_per_rank: Dict[int, int] = {}
        for m in range(k + 1, nt):
            r = dist.rank_of(m, k)
            work[r] = work.get(r, 0.0) + trsm
            tiles_per_rank[r] = tiles_per_rank.get(r, 0) + 1
        max_tiles = max(tiles_per_rank.values(), default=0)
        bcast = net.bcast_time(dist.pcols, tile_bytes) + net.bcast_time(
            dist.prows, tile_bytes
        )
        rounds.append(
            Round(
                work=work,
                critical_path={r: trsm for r in work},
                comm=comm_factor * max_tiles * bcast,
                name=f"trsm({k})",
            )
        )
        # Round 3: trailing update (SYRK + GEMM), embarrassingly parallel
        # across tiles but one worker per tile kernel.
        work = _update_work(owner, k, syrk, gemm)
        rounds.append(
            Round(
                work=work,
                critical_path={r: gemm for r in work},
                name=f"update({k})",
            )
        )
    makespan = ex.run(rounds)
    flops = cholesky_total_flops(n)
    return BaselineResult(
        name=name,
        makespan=makespan,
        gflops=flops / makespan / 1.0e9,
        breakdown=ex.breakdown(),
    )


def scalapack_cholesky(cluster: Cluster, n: int) -> BaselineResult:
    """ScaLAPACK: pure-MPI (one rank per core) with its own
    ``SCALAPACK_NB`` internal blocking (the tile size of the tiled codes
    does not apply), serial panel, grid-wide collectives."""
    return _forkjoin_cholesky(
        cluster, n, SCALAPACK_NB, name="scalapack", panel_workers=1,
        comm_factor=1.3, pure_mpi=True,
    )


def slate_cholesky(cluster: Cluster, n: int) -> BaselineResult:
    """SLATE: ``SLATE_TILE``^2 tiles with a multithreaded panel, tuned
    broadcasts, still fork-join without lookahead."""
    return _forkjoin_cholesky(
        cluster, n, SLATE_TILE, name="slate", panel_workers=4, comm_factor=1.0
    )


def _taskbased_cholesky(
    machine_cluster: Cluster,
    a: TiledMatrix,
    *,
    name: str,
    config: BackendConfig,
    task_overhead_scale: float = 1.0,
) -> BaselineResult:
    """Run the TTG Cholesky DAG under a comparator's backend model."""
    machine = machine_cluster.machine
    if task_overhead_scale != 1.0:
        node = replace(
            machine.node, task_overhead=machine.node.task_overhead * task_overhead_scale
        )
        machine = replace(machine, node=node)
    cluster = Cluster(machine, machine_cluster.nnodes)
    backend = ParsecBackend(cluster, config=config)
    res = cholesky_ttg(a, backend)
    return BaselineResult(name=name, makespan=res.makespan, gflops=res.gflops)


def dplasma_cholesky(cluster: Cluster, a: TiledMatrix) -> BaselineResult:
    """DPLASMA (PaRSEC PTG): TTG's substrate, statically unrolled graph."""
    cfg = BackendConfig(
        scheduler="priority",
        broadcast="optimized",
        supports_splitmd=True,
        copy_on_cref=False,
    )
    return _taskbased_cholesky(
        cluster, a, name="dplasma", config=cfg, task_overhead_scale=0.8
    )


def chameleon_cholesky(cluster: Cluster, a: TiledMatrix) -> BaselineResult:
    """Chameleon/StarPU: task-based; its MSI data cache dedups transfers
    per node (so broadcast stays optimized) but transfers use generic
    serialization with copies on both sides and task management is
    heavier -- the paper's "less efficient communication substrate"."""
    cfg = BackendConfig(
        scheduler="priority",
        broadcast="optimized",
        serialization_allowed=("trivial", "generic"),
        supports_splitmd=False,
        copy_on_cref=True,
    )
    return _taskbased_cholesky(
        cluster, a, name="chameleon", config=cfg, task_overhead_scale=1.5
    )
