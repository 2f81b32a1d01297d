"""The five hostbench workloads: inputs, timed call, result check, statistics.

A workload is one set of inputs plus the public driver a user would call on
them.  One *repetition* is one call of that driver on a fresh backend; it
is the benchmark's unit of work ("operation").  Everything here goes through
the library's public entry points, and clusters are always built as
``Cluster(machine, nodes)`` with no ``engine=`` so the default engine -- the
one a user gets -- is what is measured.

Seeds change *placement*, never the amount of work: the POTRF tile map is
rotated, the BSPMM tile order is rotated and the MRA function order is
rotated.  Task counts therefore repeat exactly across seeds and ``host_s``
of two seeds is comparable, while makespans, bytes and event orders differ.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.apps.bspmm import bspmm_ttg
from repro.apps.cholesky import cholesky_ttg
from repro.apps.mra import mra_ttg, random_gaussians
from repro.bench.figures import fig9_fw_seawulf, fig13a_mra_seawulf
from repro.bench.history import SeededBlockCyclic
from repro.core.graph import add_construction_observer, remove_construction_observer
from repro.linalg import TiledMatrix, yukawa_blocksparse
from repro.linalg.blocksparse import BlockSparseMatrix, IrregularTiling
from repro.runtime import ParsecBackend
from repro.sim.cluster import HAWK, Cluster
from repro.telemetry import Telemetry

NRANKS = 16
MACHINE = HAWK.with_workers(4)


class CheckFailed(Exception):
    """A repetition's outputs are wrong; the repetition counts as failed."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``drive(inputs, backend)`` is the timed call.  ``make_backend`` builds
    the fresh backend every repetition needs (virtual time accumulates in
    an engine) and is not timed; it is ``None`` for ``figure-sweep``, whose
    driver builds its own clusters.
    """

    name: str
    make_inputs: Callable[[int, bool], Any]
    make_backend: Optional[Callable[[], Any]]
    drive: Callable[[Any, Any], Any]
    check: Callable[[Any, Any], None]
    stats: Callable[[Any, Any], Dict[str, Any]]


def parsec_backend(telemetry: Optional[Telemetry] = None) -> ParsecBackend:
    return ParsecBackend(Cluster(MACHINE, NRANKS), telemetry=telemetry)


def cell_stats(result: Any, backend: Any) -> Dict[str, Any]:
    """The simulated statistics of one cell; must repeat bit for bit."""
    s = result.stats
    return {
        "makespan": repr(result.makespan),
        "tasks_executed": s["tasks_executed"],
        "tasks_by_template": dict(sorted(s["tasks_by_template"].items())),
        "bytes_by_protocol": dict(sorted(s["bytes_by_protocol"].items())),
        "events_processed": backend.engine.events_processed,
    }


def digest(stats: Dict[str, Any]) -> str:
    """Short fingerprint of a statistics block, for logs and comparisons."""
    blob = json.dumps(stats, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def fallback_reasons(backends: List[Any]) -> List[str]:
    """Why any of ``backends``' engines did not run as the kind it names."""
    reasons = (getattr(b.engine, "mp_fallback_reason", None) for b in backends)
    return [r for r in reasons if r is not None]


def work_done(backends: List[Any]) -> Dict[str, int]:
    """Simulated TTG tasks and engine events behind ``backends``."""
    return {
        "tasks": sum(b.stats.tasks_executed for b in backends),
        "events": sum(b.engine.events_processed for b in backends),
    }


# ------------------------------------------------------------------ potrf


def potrf_inputs(seed: int, quick: bool) -> TiledMatrix:
    n = 1024 if quick else 6144
    return TiledMatrix(n, 128, SeededBlockCyclic.for_ranks(NRANKS, seed), synthetic=True)


def potrf_check(a: TiledMatrix, result: Any) -> None:
    # Synthetic tiles carry no numbers, so the output that can be wrong is
    # the task DAG itself: its template counts are known in closed form.
    nt = a.n // a.b
    want = {
        "POTRF": nt,
        "TRSM": nt * (nt - 1) // 2,
        "SYRK": nt * (nt - 1) // 2,
        "GEMM": nt * (nt - 1) * (nt - 2) // 6,
    }
    got = {k: result.task_counts.get(k) for k in want}
    require(got == want, f"potrf task counts {got} != {want}")
    require(result.makespan > 0 and result.gflops > 0, "potrf made no progress")


# ------------------------------------------------------------------ bspmm


@dataclass(frozen=True)
class BspmmInputs:
    a: BlockSparseMatrix
    reference: np.ndarray


def bspmm_inputs(seed: int, quick: bool) -> BspmmInputs:
    base = yukawa_blocksparse(8 if quick else 40, target_tile=24, seed=0)
    nt = base.row_tiling.nblocks
    order = [(i + seed) % nt for i in range(nt)]
    tiling = IrregularTiling([base.row_tiling.sizes[i] for i in order])
    a = BlockSparseMatrix(tiling, tiling)
    for i, bi in enumerate(order):
        for j, bj in enumerate(order):
            tile = base.block(bi, bj)
            if tile is not None:
                a.set_block(i, j, tile)
    dense = a.to_dense()
    return BspmmInputs(a, dense @ dense)


def bspmm_check(inputs: BspmmInputs, result: Any) -> None:
    require(np.allclose(result.C.to_dense(), inputs.reference),
            "bspmm C differs from the dense product")


# -------------------------------------------------------------------- mra

# The Gaussians must be ones the tree resolves, or the norm check has
# nothing to check: at exponent 30000 / max_level 6 the quadrature misses
# the peak entirely and every computed norm is ~1e-19.
MRA_ARGS = dict(k=4, thresh=1e-3, max_level=6)
MRA_NORM_RTOL = 2e-3  # observed worst case 6e-4 at these parameters


def mra_inputs(seed: int, quick: bool) -> List[Any]:
    funcs = random_gaussians(2 if quick else 16, exponent=200.0, seed=0)
    shift = seed % len(funcs)
    return funcs[shift:] + funcs[:shift]


def mra_check(funcs: List[Any], result: Any) -> None:
    for fid, f in enumerate(funcs):
        want = f.norm2_analytic()
        got = result.norms.get(fid)
        require(got is not None and abs(got - want) <= MRA_NORM_RTOL * want,
                f"mra norm of function {fid}: {got} vs analytic {want}")


# ----------------------------------------------------------- figure-sweep


FIGURES = {"fig9_fw_seawulf": fig9_fw_seawulf, "fig13a_mra_seawulf": fig13a_mra_seawulf}
# fig9 runs at n=1024 rather than the small-scale default 2048: the same 21
# cells and the same paper-shape assertions hold, and a pass fits several
# times into one measured run.
FIGURE_ARGS = {
    False: {"fig9_fw_seawulf": dict(n=1024), "fig13a_mra_seawulf": {}},
    True: {"fig9_fw_seawulf": dict(max_nodes=2, n=256),
           "fig13a_mra_seawulf": dict(max_nodes=2)},
}


@dataclass(frozen=True)
class FigurePass:
    series: Dict[str, Dict[str, Any]]
    seconds: Dict[str, float]  # host seconds per figure, for bench.figure_s.*


def figure_inputs(_seed: int, quick: bool) -> bool:
    """The figures fix their own seeds; the only input is the scale."""
    return quick


def figure_drive(quick: bool, _backend: None) -> FigurePass:
    series, seconds = {}, {}
    for name, fig in FIGURES.items():
        t0 = perf_counter()
        series[name] = fig(**FIGURE_ARGS[quick][name])
        seconds[name] = perf_counter() - t0
    return FigurePass(series, seconds)


def figure_check(quick: bool, figures: FigurePass) -> None:
    for name, series in figures.series.items():
        for s in series.values():
            require(bool(s.points) and all(y > 0 for y in s.ys),
                    f"{name}/{s.name} has an empty or non-positive curve")
    if quick:
        return  # two node counts cannot show the paper's scaling shapes
    check_fig9_shape(figures.series["fig9_fw_seawulf"])
    check_fig13_shape(figures.series["fig13a_mra_seawulf"])


def check_fig9_shape(series: Dict[str, Any]) -> None:
    """The paper-shape claims of benchmarks/test_fig9_fw_seawulf.py."""
    parsec = [n for n in series if n.startswith("ttg-parsec")]
    mpi = next(n for n in series if n.startswith("mpi+openmp"))
    madness = next(n for n in series if n.startswith("ttg-madness"))
    factors = []
    for x in series[mpi].xs:
        if x == 1:
            continue
        best = max(series[p].y_at(x) for p in parsec if series[p].y_at(x) is not None)
        factors.append(best / series[mpi].y_at(x))
    require(max(factors) > 2.5, f"fig9: TTG over MPI+OpenMP only {factors}")
    block = madness.split("b")[-1]
    same_block = next(n for n in parsec if n.split("b")[-1] == block)
    for x in series[madness].xs:
        pv, mv = series[same_block].y_at(x), series[madness].y_at(x)
        if pv is not None and mv is not None:
            require(0.7 * pv < mv < 1.3 * pv,
                    f"fig9: madness {mv} does not track parsec {pv} at {x} nodes")


def check_fig13_shape(series: Dict[str, Any]) -> None:
    """The paper-shape claims of benchmarks/test_fig13_mra.py."""
    parsec, madness, native = (
        series[n] for n in ("ttg-parsec", "ttg-madness", "native-madness"))
    xs = parsec.xs
    for x in xs[1:]:
        require(parsec.y_at(x) >= 0.95 * madness.y_at(x), f"fig13: parsec < madness at {x}")
        require(madness.y_at(x) > native.y_at(x), f"fig13: madness <= native at {x}")
    top = xs[-1]
    require(parsec.y_at(top) > 1.5 * native.y_at(top), "fig13: no gap at the top")
    require(parsec.y_at(xs[0]) > 1.5 * native.y_at(xs[0]), "fig13: no gap at one node")
    for s in (parsec, madness, native):
        require(s.y_at(top) > 1.5 * s.ys[0], f"fig13: {s.name} does not scale")


def figure_stats(figures: FigurePass, _backend: None) -> Dict[str, Any]:
    return {
        fig: {name: [[x, repr(y)] for x, y in s.points]
              for name, s in sorted(series.items())}
        for fig, series in sorted(figures.series.items())
    }


class ExecutableLog:
    """Collects every executable a block of code binds (traced pass only:
    observers change which engines may run, so timed passes have none)."""

    def __init__(self) -> None:
        self.executables: List[Any] = []

    def _observe(self, kind: str, obj: Any) -> None:
        if kind == "executable":
            self.executables.append(obj)

    def __enter__(self) -> "ExecutableLog":
        add_construction_observer(self._observe)
        return self

    def __exit__(self, *exc: Any) -> None:
        remove_construction_observer(self._observe)

    def backends(self) -> List[Any]:
        unique = {id(ex.backend): ex.backend for ex in self.executables}
        return list(unique.values())


# --------------------------------------------------------------- registry
# Why each workload exists is recorded once, in BENCHMARK.json and README.md.

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("potrf-dense", potrf_inputs, parsec_backend,
             cholesky_ttg, potrf_check, cell_stats),
    Workload("potrf-dense-observed", potrf_inputs,
             lambda: parsec_backend(Telemetry(nranks=NRANKS, capacity=None)),
             cholesky_ttg, potrf_check, cell_stats),
    Workload("bspmm-stream", bspmm_inputs, parsec_backend,
             lambda inputs, backend: bspmm_ttg(inputs.a, inputs.a, backend),
             bspmm_check, cell_stats),
    Workload("mra-tree", mra_inputs, parsec_backend,
             lambda funcs, backend: mra_ttg(funcs, backend, **MRA_ARGS),
             mra_check, cell_stats),
    Workload("figure-sweep", figure_inputs, None, figure_drive, figure_check, figure_stats),
)}
