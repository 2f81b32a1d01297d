"""Per-figure experiment definitions (paper Section III).

Each ``figN_*`` function runs the full experiment for one figure and
returns the curves as :class:`~repro.bench.harness.Series`.  Two scales:

- ``small`` (default) -- minutes of wall time, same curve *shapes*;
- ``large`` -- closer to the paper's node counts; set
  ``REPRO_BENCH_SCALE=large``.

Scaling methodology (documented per-experiment in EXPERIMENTS.md): the
simulated machines keep the paper's network and per-worker rates but use
fewer workers per node and proportionally smaller problems, so the
compute/communication balance per task -- which determines who wins and
where curves roll off -- is preserved while the discrete-event simulation
stays tractable in Python.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional

from repro.apps.bspmm import bspmm_ttg
from repro.apps.cholesky import cholesky_ttg
from repro.apps.floydwarshall import floyd_warshall_ttg
from repro.apps.mra import mra_ttg, random_gaussians
from repro.baselines import (
    chameleon_cholesky,
    dbcsr_multiply,
    dplasma_cholesky,
    forkjoin_fw,
    madness_mra,
    scalapack_cholesky,
    slate_cholesky,
)
from repro.bench.harness import Series, geometric_nodes
from repro.linalg import (
    BlockCyclicDistribution,
    TiledMatrix,
    yukawa_blocksparse,
)
from repro.runtime import MadnessBackend, ParsecBackend
from repro.sim.cluster import Cluster, HAWK, SEAWULF, MachineSpec


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small").lower()


def scaled(machine: MachineSpec, workers: int) -> MachineSpec:
    """The bench variant of a machine preset with fewer workers per node."""
    return machine.with_workers(workers)


def _synthetic_tiled(n: int, b: int, nodes: int) -> TiledMatrix:
    return TiledMatrix(n, b, BlockCyclicDistribution.for_ranks(nodes), synthetic=True)


# ---------------------------------------------------------------- Table I


def table1_configs() -> List[Dict[str, object]]:
    """Simulator equivalents of the paper's software/hardware table."""
    rows = []
    for m in (HAWK, SEAWULF):
        rows.append(
            {
                "machine": m.name,
                "description": m.description,
                "workers/node": m.node.workers,
                "Gflop/s/worker": m.node.flops_per_worker / 1e9,
                "mem GB/s": m.node.mem_bandwidth / 1e9,
                "net GB/s": m.network.bandwidth / 1e9,
                "latency us": m.network.latency * 1e6,
                "eager bytes": m.network.eager_threshold,
            }
        )
    return rows


# ----------------------------------------------------------- Fig 5 and 6


def fig5_potrf_weak(
    max_nodes: Optional[int] = None,
    workers: int = 16,
    per_node: int = 4096,
    b: int = 256,
) -> Dict[str, Series]:
    """POTRF weak scaling on (scaled) Hawk; paper: 30k^2 per node, 512^2
    tiles.  Scaled: ``per_node``^2 per node, 256^2 tiles, ``workers``-worker
    nodes -- keeping ~16 tile rows per node like the paper's ratio."""
    if max_nodes is None:
        max_nodes = 64 if bench_scale() == "large" else 16
    machine = scaled(HAWK, workers)
    series = {
        name: Series(name)
        for name in ("ttg", "dplasma", "chameleon", "slate", "scalapack")
    }
    for nodes in geometric_nodes(max_nodes):
        n = max(b, round(per_node * math.sqrt(nodes) / b) * b)
        series["ttg"].add(
            nodes,
            cholesky_ttg(
                _synthetic_tiled(n, b, nodes), ParsecBackend(Cluster(machine, nodes))
            ).gflops,
        )
        series["dplasma"].add(
            nodes, dplasma_cholesky(Cluster(machine, nodes), _synthetic_tiled(n, b, nodes)).gflops
        )
        series["chameleon"].add(
            nodes,
            chameleon_cholesky(Cluster(machine, nodes), _synthetic_tiled(n, b, nodes)).gflops,
        )
        series["slate"].add(nodes, slate_cholesky(Cluster(machine, nodes), n).gflops)
        series["scalapack"].add(nodes, scalapack_cholesky(Cluster(machine, nodes), n).gflops)
    return series


def fig6_potrf_problem(
    nodes: Optional[int] = None,
    workers: int = 16,
    b: int = 256,
    sizes: Optional[List[int]] = None,
) -> Dict[str, Series]:
    """POTRF problem-size scaling on a fixed node count (paper: 64 nodes)."""
    if nodes is None:
        nodes = 64 if bench_scale() == "large" else 16
    if sizes is None:
        # Start where the paper does: several tile-rows per rank (its
        # x-axis begins at 30k on 64 full nodes).
        if bench_scale() == "large":
            sizes = [8192, 16384, 24576, 32768]
        else:
            sizes = [6144, 8192, 12288, 16384]
    machine = scaled(HAWK, workers)
    series = {
        name: Series(name)
        for name in ("ttg", "dplasma", "chameleon", "slate", "scalapack")
    }
    for n in sizes:
        series["ttg"].add(
            n,
            cholesky_ttg(
                _synthetic_tiled(n, b, nodes), ParsecBackend(Cluster(machine, nodes))
            ).gflops,
        )
        series["dplasma"].add(
            n, dplasma_cholesky(Cluster(machine, nodes), _synthetic_tiled(n, b, nodes)).gflops
        )
        series["chameleon"].add(
            n, chameleon_cholesky(Cluster(machine, nodes), _synthetic_tiled(n, b, nodes)).gflops
        )
        series["slate"].add(n, slate_cholesky(Cluster(machine, nodes), n).gflops)
        series["scalapack"].add(n, scalapack_cholesky(Cluster(machine, nodes), n).gflops)
    return series


# ----------------------------------------------------------- Fig 8 and 9


def _fw_figure(
    machine: MachineSpec,
    n: int,
    blocks: List[int],
    max_nodes: int,
    madness_block: int,
    mpi_block: int,
) -> Dict[str, Series]:
    series: Dict[str, Series] = {}
    for b in blocks:
        s = Series(f"ttg-parsec-b{b}")
        for nodes in geometric_nodes(max_nodes):
            if (n // b) ** 2 < nodes:  # fewer tiles than ranks: skip
                continue
            w = _synthetic_tiled(n, b, nodes)
            s.add(nodes, floyd_warshall_ttg(w, ParsecBackend(Cluster(machine, nodes))).gflops)
        series[s.name] = s
    s = Series(f"ttg-madness-b{madness_block}")
    for nodes in geometric_nodes(max_nodes):
        w = _synthetic_tiled(n, madness_block, nodes)
        s.add(nodes, floyd_warshall_ttg(w, MadnessBackend(Cluster(machine, nodes))).gflops)
    series[s.name] = s
    s = Series(f"mpi+openmp-b{mpi_block}")
    for nodes in geometric_nodes(max_nodes):
        # The MPI+OpenMP implementation requires square process counts
        # (paper III-C); plot it only where it can actually run.
        if math.isqrt(nodes) ** 2 != nodes:
            continue
        s.add(nodes, forkjoin_fw(Cluster(machine, nodes), n, mpi_block).gflops)
    series[s.name] = s
    return series


def fig8_fw_hawk(
    max_nodes: Optional[int] = None, workers: int = 4, n: Optional[int] = None
) -> Dict[str, Series]:
    """FW-APSP strong scaling on (scaled) Hawk; paper: 32k matrix, blocks
    64/128/256, up to 256 nodes.

    Scaled run: 4-worker nodes keep the paper's blocks-per-worker ratio at
    the top of the node range (its 256-node limit of ~4 blocks/process).
    """
    if max_nodes is None:
        max_nodes = 64
    if n is None:
        n = 4096 if bench_scale() == "large" else 2048
    blocks = [32, 64, 128] if n <= 2048 else [64, 128, 256]
    return _fw_figure(
        scaled(HAWK, workers), n, blocks, max_nodes,
        madness_block=blocks[-1], mpi_block=blocks[1],
    )


def fig9_fw_seawulf(
    max_nodes: Optional[int] = None, workers: int = 4, n: Optional[int] = None
) -> Dict[str, Series]:
    """FW-APSP strong scaling on (scaled) Seawulf; paper: blocks 128/256,
    up to 32 nodes."""
    if max_nodes is None:
        max_nodes = 32
    if n is None:
        n = 4096 if bench_scale() == "large" else 2048
    blocks = [64, 128] if n <= 2048 else [128, 256]
    return _fw_figure(
        scaled(SEAWULF, workers), n, blocks, max_nodes,
        madness_block=blocks[-1], mpi_block=blocks[0],
    )


# ----------------------------------------------------------------- Fig 12


def fig12_bspmm(
    max_nodes: Optional[int] = None,
    workers: int = 16,
    natoms: Optional[int] = None,
) -> Dict[str, Series]:
    """Block-sparse GEMM strong scaling (paper: Yukawa matrix of the
    SARS-CoV-2 protease, 8..256 nodes, vs DBCSR's 2.5D SUMMA)."""
    if max_nodes is None:
        max_nodes = 256 if bench_scale() == "large" else 64
    if natoms is None:
        natoms = 400 if bench_scale() == "large" else 220
    machine = scaled(HAWK, workers)
    # Paper-like tile granularity: blocks grouped toward a 96^2 target
    # (scaled from 256) keeps multiply-adds compute-heavy relative to the
    # tile transfers, as in the real workload.
    a = yukawa_blocksparse(
        natoms, target_tile=96, min_block=8, max_block=32,
        decay_length=1.5, seed=7, synthetic=True,
    )
    series = {
        name: Series(name) for name in ("ttg-parsec", "ttg-madness", "dbcsr")
    }
    for nodes in geometric_nodes(max_nodes, start=4):
        series["ttg-parsec"].add(
            nodes, bspmm_ttg(a, a, ParsecBackend(Cluster(machine, nodes))).gflops
        )
        series["ttg-madness"].add(
            nodes, bspmm_ttg(a, a, MadnessBackend(Cluster(machine, nodes))).gflops
        )
        series["dbcsr"].add(nodes, dbcsr_multiply(Cluster(machine, nodes), a, a).gflops)
    return series


# ----------------------------------------------------------------- Fig 13


def _mra_figure(
    machine: MachineSpec, max_nodes: int, nfuncs: int, k: int, thresh: float,
    exponent: float,
) -> Dict[str, Series]:
    funcs = random_gaussians(nfuncs, d=3, exponent=exponent, seed=11)
    series = {
        name: Series(name)
        for name in ("ttg-parsec", "ttg-madness", "native-madness")
    }
    # Charge wire bytes and flops as if tensors had the paper's order
    # k=10: inflate bytes by (10/k)^3 and work by (10/k)^4 (separable
    # transforms scale as k^(d+1)).
    mra_args = dict(k=k, thresh=thresh, max_level=10, initial_level=1,
                    target_level=2, inflate=(10.0 / k) ** 3,
                    flops_scale=(10.0 / k) ** 4)
    for nodes in geometric_nodes(max_nodes):
        t_p = mra_ttg(funcs, ParsecBackend(Cluster(machine, nodes)), **mra_args).makespan
        t_m = mra_ttg(funcs, MadnessBackend(Cluster(machine, nodes)), **mra_args).makespan
        t_n = madness_mra(Cluster(machine, nodes), funcs, **mra_args).makespan
        # Figure 13 reports execution time speedup as strong scaling; we
        # plot throughput = functions/second so "up is better" like GFlop/s.
        series["ttg-parsec"].add(nodes, nfuncs / t_p)
        series["ttg-madness"].add(nodes, nfuncs / t_m)
        series["native-madness"].add(nodes, nfuncs / t_n)
    return series


def fig13a_mra_seawulf(
    max_nodes: Optional[int] = None, workers: int = 16
) -> Dict[str, Series]:
    """MRA strong scaling on (scaled) Seawulf, paper: up to 32 nodes."""
    if max_nodes is None:
        max_nodes = 32
    nfuncs = 32 if bench_scale() == "large" else 16
    return _mra_figure(
        scaled(SEAWULF, workers), max_nodes, nfuncs, k=4, thresh=1e-4,
        exponent=1.0e5,
    )


def fig13b_mra_hawk(
    max_nodes: Optional[int] = None, workers: int = 16
) -> Dict[str, Series]:
    """MRA strong scaling on (scaled) Hawk, paper: up to 64 nodes."""
    if max_nodes is None:
        max_nodes = 64 if bench_scale() == "large" else 32
    nfuncs = 32 if bench_scale() == "large" else 16
    return _mra_figure(
        scaled(HAWK, workers), max_nodes, nfuncs, k=4, thresh=1e-4,
        exponent=1.0e5,
    )
