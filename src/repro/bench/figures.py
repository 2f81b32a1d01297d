"""Per-figure experiment definitions (paper Section III).

A figure is a table of cells, each naming a row of :data:`ROWS` (a TTG app
on one backend, or a baseline); :func:`sweep` runs a figure's cells and
:data:`FIGURES` names the figures.  Two scales:

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
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.apps.bspmm import bspmm_ttg, bspmm_ttg_25d
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
from repro.bench import history
from repro.bench.harness import Series, geometric_nodes
from repro.linalg import yukawa_blocksparse
from repro.runtime import MadnessBackend, ParsecBackend
from repro.sim.cluster import Cluster, HAWK, SEAWULF, MachineSpec


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small").lower()


def scaled(machine: MachineSpec, workers: int) -> MachineSpec:
    """The bench variant of a machine preset with fewer workers per node."""
    return machine.with_workers(workers)


# -------------------------------------------------------------- the rows

#: How one cell runs: a fresh cluster and the cell's parameters in, y out.
Row = Callable[[Cluster, Dict[str, Any]], float]


def _tiles(app: str, cluster: Cluster, p: Dict[str, Any]) -> Any:
    """The synthetic tiled matrix the watchdog's POTRF or FW runs on."""
    return history.APPS[app].inputs(0, {**p, "nodes": cluster.nnodes})


def _ttg(app: str, backend: Callable[[Cluster], Any]) -> Row:
    driver = history.APPS[app].driver
    return lambda c, p: driver(_tiles(app, c, p), backend(c), p).gflops


def _bspmm(multiply: Callable[[Any, Cluster], Any]) -> Row:
    # Paper-like tile granularity: blocks grouped toward a 96^2 target
    # (scaled from 256) keeps multiply-adds compute-heavy relative to the
    # tile transfers, as in the real workload.
    return lambda c, p: multiply(yukawa_blocksparse(
        p["natoms"], target_tile=96, min_block=8, max_block=32,
        decay_length=1.5, seed=7, synthetic=True), c).gflops


def _mra(project: Callable[..., Any]) -> Row:
    def run(cluster: Cluster, p: Dict[str, Any]) -> float:
        k, nfuncs = p["k"], p["nfuncs"]
        funcs = random_gaussians(nfuncs, d=3, exponent=p["exponent"], seed=11)
        # Charge wire bytes and flops as if tensors had the paper's order
        # k=10: inflate bytes by (10/k)^3 and work by (10/k)^4 (separable
        # transforms scale as k^(d+1)).
        t = project(funcs, cluster, k=k, thresh=p["thresh"], max_level=10,
                    initial_level=1, target_level=2, inflate=(10.0 / k) ** 3,
                    flops_scale=(10.0 / k) ** 4).makespan
        # Figure 13 reports execution time speedup as strong scaling; we
        # plot throughput = functions/second so "up is better" like GFlop/s.
        return nfuncs / t

    return run


#: Every row a figure cell can name.
ROWS: Dict[str, Row] = {
    "potrf-parsec": _ttg("potrf", ParsecBackend),
    "dplasma": lambda c, p: dplasma_cholesky(c, _tiles("potrf", c, p)).gflops,
    "chameleon": lambda c, p: chameleon_cholesky(c, _tiles("potrf", c, p)).gflops,
    "slate": lambda c, p: slate_cholesky(c, p["n"]).gflops,
    "scalapack": lambda c, p: scalapack_cholesky(c, p["n"]).gflops,
    "fw-parsec": _ttg("fw", ParsecBackend),
    "fw-madness": _ttg("fw", MadnessBackend),
    "mpi+openmp-fw": lambda c, p: forkjoin_fw(c, p["n"], p["b"]).gflops,
    "bspmm-parsec": _bspmm(lambda a, c: bspmm_ttg(a, a, ParsecBackend(c))),
    "bspmm-madness": _bspmm(lambda a, c: bspmm_ttg(a, a, MadnessBackend(c))),
    "summa25-parsec": _bspmm(lambda a, c: bspmm_ttg_25d(a, a, ParsecBackend(c))),
    "dbcsr": _bspmm(lambda a, c: dbcsr_multiply(c, a, a)),
    "mra-parsec": _mra(lambda f, c, **kw: mra_ttg(f, ParsecBackend(c), **kw)),
    "mra-madness": _mra(lambda f, c, **kw: mra_ttg(f, MadnessBackend(c), **kw)),
    "native-madness": _mra(lambda f, c, **kw: madness_mra(c, f, **kw)),
}

#: One cell of a figure: ``(series, x, row, machine, nodes, params)``.
Entry = Tuple[str, float, str, MachineSpec, int, Dict[str, Any]]
#: The y of each cell run so far (see :func:`sweep`).
Cells = Dict[Tuple[Any, ...], float]


def sweep(series: Sequence[str], entries: Iterable[Entry],
          cells: Optional[Cells] = None) -> Dict[str, Series]:
    """Run ``entries`` in order into the named ``series``, all created
    first (a series whose cells were all left out keeps its column).

    ``cells`` maps each cell run so far (row, machine, nodes, parameters)
    to its y; a cell in it is not run again, which is exact because the
    simulator is deterministic.  The caller owns it; None is a fresh one.
    """
    cells = {} if cells is None else cells
    out = {name: Series(name) for name in series}
    for name, x, row, machine, nodes, params in entries:
        key = (row, machine, nodes, tuple(sorted(params.items())))
        if key not in cells:
            cells[key] = ROWS[row](Cluster(machine, nodes), params)
        out[name].add(x, cells[key])
    return out


def _table(columns: Sequence[Tuple[str, str]], machine: MachineSpec,
           points: Iterable[Tuple[float, int, Dict[str, Any]]], cells: Optional[Cells]
           ) -> Dict[str, Series]:
    """Every ``(series, row)`` column at every ``(x, nodes, params)``."""
    return sweep([name for name, _ in columns], [
        (name, x, row, machine, nodes, p)
        for x, nodes, p in points for name, row in columns], cells)


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

_POTRF = (("ttg", "potrf-parsec"), ("dplasma", "dplasma"), ("chameleon", "chameleon"),
          ("slate", "slate"), ("scalapack", "scalapack"))


def fig5_potrf_weak(
    max_nodes: Optional[int] = None,
    workers: int = 16,
    per_node: int = 4096,
    b: int = 256,
    cells: Optional[Cells] = None,
) -> Dict[str, Series]:
    """POTRF weak scaling on (scaled) Hawk; paper: 30k^2 per node, 512^2
    tiles.  Scaled: ``per_node``^2 per node, 256^2 tiles, ``workers``-worker
    nodes -- keeping ~16 tile rows per node like the paper's ratio."""
    if max_nodes is None:
        max_nodes = 64 if bench_scale() == "large" else 16
    return _table(_POTRF, scaled(HAWK, workers), [
        (nodes, nodes, {"n": max(b, round(per_node * math.sqrt(nodes) / b) * b), "b": b})
        for nodes in geometric_nodes(max_nodes)], cells)


def fig6_potrf_problem(
    nodes: Optional[int] = None,
    workers: int = 16,
    b: int = 256,
    sizes: Optional[List[int]] = None,
    cells: Optional[Cells] = None,
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
    return _table(_POTRF, scaled(HAWK, workers),
                  [(n, nodes, {"n": n, "b": b}) for n in sizes], cells)


# ----------------------------------------------------------- Fig 8 and 9


def _fw(machine: MachineSpec, n: int, blocks: List[int], max_nodes: int, mpi_block: int,
        cells: Optional[Cells]) -> Dict[str, Series]:
    columns = [(f"ttg-parsec-b{b}", "fw-parsec", b) for b in blocks] + [
        (f"ttg-madness-b{blocks[-1]}", "fw-madness", blocks[-1]),
        (f"mpi+openmp-b{mpi_block}", "mpi+openmp-fw", mpi_block)]
    return sweep([name for name, _, _ in columns], [
        (name, nodes, row, machine, nodes, {"n": n, "b": b})
        for name, row, b in columns for nodes in geometric_nodes(max_nodes)
        # TTG/PaRSEC skips fewer tiles than ranks; MPI+OpenMP runs only
        # on square process counts (paper III-C), so it is plotted there.
        if row != "fw-parsec" or (n // b) ** 2 >= nodes
        if row != "mpi+openmp-fw" or math.isqrt(nodes) ** 2 == nodes
    ], cells)


def fig8_fw_hawk(
    max_nodes: Optional[int] = None, workers: int = 4, n: Optional[int] = None,
    cells: Optional[Cells] = None,
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
    return _fw(scaled(HAWK, workers), n, blocks, max_nodes, mpi_block=blocks[1], cells=cells)


def fig9_fw_seawulf(
    max_nodes: Optional[int] = None, workers: int = 4, n: Optional[int] = None,
    cells: Optional[Cells] = None,
) -> Dict[str, Series]:
    """FW-APSP strong scaling on (scaled) Seawulf; paper: blocks 128/256,
    up to 32 nodes."""
    if max_nodes is None:
        max_nodes = 32
    if n is None:
        n = 4096 if bench_scale() == "large" else 2048
    blocks = [64, 128] if n <= 2048 else [128, 256]
    return _fw(scaled(SEAWULF, workers), n, blocks, max_nodes, mpi_block=blocks[0], cells=cells)


# ----------------------------------------------------------------- Fig 12


#: Fig 12's workers per node and its small-scale Yukawa atom count.
_BSPMM_WORKERS, _BSPMM_ATOMS = 16, 220
#: Fig 12's first node count (the paper's sweep starts at 8 nodes).
_BSPMM_FIRST_NODES = 4


def fig12_bspmm(
    max_nodes: Optional[int] = None,
    workers: int = _BSPMM_WORKERS,
    natoms: Optional[int] = None,
    cells: Optional[Cells] = None,
) -> Dict[str, Series]:
    """Block-sparse GEMM strong scaling (paper: Yukawa matrix of the
    SARS-CoV-2 protease, 8..256 nodes, vs DBCSR's 2.5D SUMMA)."""
    if max_nodes is None:
        max_nodes = 256 if bench_scale() == "large" else 64
    if natoms is None:
        natoms = 400 if bench_scale() == "large" else _BSPMM_ATOMS
    return _table((("ttg-parsec", "bspmm-parsec"), ("ttg-madness", "bspmm-madness"),
                   ("dbcsr", "dbcsr")), scaled(HAWK, workers),
                  [(nodes, nodes, {"natoms": natoms})
                   for nodes in geometric_nodes(max_nodes, start=_BSPMM_FIRST_NODES)],
                  cells)


def fig12_extension_25d(cells: Optional[Cells] = None) -> Dict[str, Series]:
    """The paper's 2.5D hypothesis (III-D, last paragraph): 2D beside 2.5D
    SUMMA TTG at a quarter, half and all of 128 nodes (256 at large scale).
    Every scale runs Fig 12's small-scale problem, so at small scale the 2D
    cells at 32 and 64 nodes are Fig 12's ``ttg-parsec`` cells.  Not a paper
    figure, so not a CLI experiment."""
    top = 256 if bench_scale() == "large" else 128
    return _table((("ttg-2d", "bspmm-parsec"), ("ttg-2.5d", "summa25-parsec")),
                  scaled(HAWK, _BSPMM_WORKERS),
                  [(nodes, nodes, {"natoms": _BSPMM_ATOMS}) for nodes in (top // 4, top // 2, top)],
                  cells)


# ----------------------------------------------------------------- Fig 13


def _mra_table(machine: MachineSpec, max_nodes: int, cells: Optional[Cells]) -> Dict[str, Series]:
    p = {"nfuncs": 32 if bench_scale() == "large" else 16, "k": 4,
         "thresh": 1e-4, "exponent": 1.0e5}
    return _table((("ttg-parsec", "mra-parsec"), ("ttg-madness", "mra-madness"),
                   ("native-madness", "native-madness")), machine,
                  [(nodes, nodes, p) for nodes in geometric_nodes(max_nodes)], cells)


def fig13a_mra_seawulf(
    max_nodes: Optional[int] = None, workers: int = 16, cells: Optional[Cells] = None
) -> Dict[str, Series]:
    """MRA strong scaling on (scaled) Seawulf, paper: up to 32 nodes."""
    if max_nodes is None:
        max_nodes = 32
    return _mra_table(scaled(SEAWULF, workers), max_nodes, cells)


def fig13b_mra_hawk(
    max_nodes: Optional[int] = None, workers: int = 16, cells: Optional[Cells] = None
) -> Dict[str, Series]:
    """MRA strong scaling on (scaled) Hawk, paper: up to 64 nodes."""
    if max_nodes is None:
        max_nodes = 64 if bench_scale() == "large" else 32
    return _mra_table(scaled(HAWK, workers), max_nodes, cells)


# ------------------------------------------------------------ the figures


class Figure(NamedTuple):
    """A paper figure as printed; ``--max-nodes`` sets ``node_arg``, which
    may not be below ``first_nodes``."""

    run: Callable[..., Dict[str, Series]]
    title: str
    xlabel: str = "nodes"
    node_arg: str = "max_nodes"
    first_nodes: int = 1


#: The paper's figures by experiment name.
FIGURES: Dict[str, Figure] = {
    "fig5": Figure(fig5_potrf_weak, "Fig 5: POTRF weak scaling, Hawk (Gflop/s)"),
    "fig6": Figure(fig6_potrf_problem, "Fig 6: POTRF problem-size scaling (Gflop/s)", "n",
                   "nodes"),
    "fig8": Figure(fig8_fw_hawk, "Fig 8: FW-APSP strong scaling, Hawk (Gflop/s)"),
    "fig9": Figure(fig9_fw_seawulf, "Fig 9: FW-APSP strong scaling, Seawulf (Gflop/s)"),
    "fig12": Figure(fig12_bspmm, "Fig 12: BSPMM strong scaling (Gflop/s)",
                    first_nodes=_BSPMM_FIRST_NODES),
    "fig13a": Figure(fig13a_mra_seawulf, "Fig 13a: MRA strong scaling, Seawulf (functions/s)"),
    "fig13b": Figure(fig13b_mra_hawk, "Fig 13b: MRA strong scaling, Hawk (functions/s)"),
}
