"""Benchmark history and the pinned watchdog cells.

The paper's evaluation is a *trajectory*: the same four applications
measured repeatedly as runtime features landed.  This module keeps that
trajectory for the reproduction -- one ``BENCH_<app>.json`` file per
application, each an append-only list of the watchdog's
:class:`BenchRecord` runs (makespan, Gflop/s, task/byte breakdowns,
critical-path and idle fractions, a counter snapshot, the git SHA) at
one schema version.  Host time is not recorded here: ``hostbench/``
measures it.

The simulator is deterministic, so every virtual number of a record is a
function of the commit, the app, its parameters and the seed.  The
watchdog does not judge them as samples: :data:`PINS` holds the
:func:`record_digest` of each cell it measures (four apps at seeds 0, 1
and 2), and any digest that differs fails the check.  A change that
moves a virtual number edits its pins and says why.

CLI (see ``python -m repro.bench --help``)::

    python -m repro.bench --check-regressions                   # CI gate
    python -m repro.bench --check-regressions --record-history  # + trajectory
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

SCHEMA = "repro.bench/history"
SCHEMA_VERSION = 5

#: The watchdog's cells: ``(app, seed)`` -> :func:`record_digest` of
#: ``measure(app, seed)`` at the app's defaults.  A change that moves a
#: virtual number edits the literals here and says why.
PINS: Dict[Tuple[str, int], str] = {
    ("potrf", 0): "4ee71f0c9866fd4e",
    ("potrf", 1): "37e69826e175562f",
    ("potrf", 2): "922d28a50b6c5970",
    ("fw", 0): "bf123a933c995db2",
    ("fw", 1): "0f6f7bbbcef05b42",
    ("fw", 2): "cb7d59dd41b2a4a1",
    ("bspmm", 0): "ffe327dd2eaca12c",
    ("bspmm", 1): "240e9dc90a4aa413",
    ("bspmm", 2): "69df525dd0802b5e",
    ("mra", 0): "c51e5a24b9be9ded",
    ("mra", 1): "be8628f025ad0e07",
    ("mra", 2): "454b04cdfb936ab8",
}

#: Record fields the digest leaves out: they describe the commit, not the
#: simulated run.
UNPINNED_FIELDS = ("git_sha",)


def git_sha() -> str:
    """Short SHA of HEAD, or "" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


# ------------------------------------------------------------------ records


@dataclass
class BenchRecord:
    """One benchmark run of one application configuration."""

    app: str
    backend: str = "parsec"
    config: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    makespan: float = 0.0
    gflops: float = 0.0
    tasks_total: int = 0
    tasks_by_template: Dict[str, int] = field(default_factory=dict)
    bytes_by_protocol: Dict[str, int] = field(default_factory=dict)
    critical_path_fraction: float = 0.0
    idle_fraction: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    git_sha: str = ""
    # The what-if cost overrides active during this run (see
    # repro.sim.cluster.CostOverrides.as_dict; {} = unperturbed).  Kept
    # OUT of config_key on purpose: ``--explain`` compares a perturbed and
    # a clean run of the same cell, and the what-if replayer needs to know
    # the recorded factors so probe overrides compose exactly.  It is part
    # of record_digest, so a perturbed run never matches a pin.
    cost_overrides: Dict[str, Any] = field(default_factory=dict)

    @property
    def config_key(self) -> str:
        """Canonical group key: records with equal keys are comparable."""
        cfg = ",".join(f"{k}={self.config[k]}" for k in sorted(self.config))
        return f"{self.backend}|{cfg}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "backend": self.backend,
            "config": dict(self.config),
            "seed": self.seed,
            "makespan": self.makespan,
            "gflops": self.gflops,
            "tasks_total": self.tasks_total,
            "tasks_by_template": dict(self.tasks_by_template),
            "bytes_by_protocol": dict(self.bytes_by_protocol),
            "critical_path_fraction": self.critical_path_fraction,
            "idle_fraction": self.idle_fraction,
            "counters": dict(self.counters),
            "git_sha": self.git_sha,
            "cost_overrides": dict(self.cost_overrides),
        }

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "BenchRecord":
        return cls(
            app=obj["app"],
            backend=obj.get("backend", "parsec"),
            config=dict(obj.get("config", {})),
            seed=int(obj.get("seed", 0)),
            makespan=float(obj.get("makespan", 0.0)),
            gflops=float(obj.get("gflops", 0.0)),
            tasks_total=int(obj.get("tasks_total", 0)),
            tasks_by_template=dict(obj.get("tasks_by_template", {})),
            bytes_by_protocol=dict(obj.get("bytes_by_protocol", {})),
            critical_path_fraction=float(obj.get("critical_path_fraction", 0.0)),
            idle_fraction=float(obj.get("idle_fraction", 0.0)),
            counters=dict(obj.get("counters", {})),
            git_sha=obj.get("git_sha", ""),
            cost_overrides=dict(obj.get("cost_overrides", {})),
        )


class BenchHistory:
    """The append-only run history of one application."""

    def __init__(self, app: str, records: Optional[List[BenchRecord]] = None) -> None:
        self.app = app
        self.records: List[BenchRecord] = list(records or [])

    # ----------------------------------------------------------------- io

    @staticmethod
    def path_for(app: str, directory: str = ".") -> Path:
        return Path(directory) / f"BENCH_{app}.json"

    @classmethod
    def load(cls, path: Any) -> "BenchHistory":
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except ValueError:
                payload = None
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
            raise ValueError(f"{path}: not a BENCH_*.json history "
                             f"(schema {SCHEMA})")
        version = payload.get("version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"{path}: schema version {version}, this code reads only "
                f"{SCHEMA_VERSION}; re-record it with `python -m repro.bench "
                f"--check-regressions --record-history`")
        return cls(
            payload["app"],
            [BenchRecord.from_dict(r) for r in payload.get("records", [])],
        )

    @classmethod
    def load_app(cls, app: str, directory: str = ".") -> "BenchHistory":
        """Load ``BENCH_<app>.json``; an empty history if the file is absent."""
        path = cls.path_for(app, directory)
        if not path.exists():
            return cls(app)
        return cls.load(path)

    def save(self, path: Any = None, directory: str = ".") -> Path:
        path = Path(path) if path is not None else self.path_for(self.app, directory)
        payload = {
            "schema": SCHEMA,
            "version": SCHEMA_VERSION,
            "app": self.app,
            "records": [r.as_dict() for r in self.records],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path

    # ------------------------------------------------------------- queries

    def append(self, record: BenchRecord) -> None:
        if record.app != self.app:
            raise ValueError(f"record app {record.app!r} != history {self.app!r}")
        self.records.append(record)

    def group(self, config_key: str) -> List[BenchRecord]:
        return [r for r in self.records if r.config_key == config_key]

    def __len__(self) -> int:
        return len(self.records)


# ------------------------------------------------------------- measurement


class SeededBlockCyclic:
    """Block-cyclic tile map rotated by ``seed`` -- same grid, same DAG,
    different owners.  Seeds 0, 1 and 2 are three pinned placements
    (:data:`PINS`), not samples of a distribution: each one is a cell
    whose communication pattern differs from the others'."""

    def __init__(self, prows: int, pcols: int, seed: int = 0) -> None:
        self.prows = prows
        self.pcols = pcols
        self.seed = seed

    @classmethod
    def for_ranks(cls, nranks: int, seed: int = 0) -> "SeededBlockCyclic":
        from repro.linalg.tiled_matrix import grid_dims

        return cls(*grid_dims(nranks), seed=seed)

    @property
    def nranks(self) -> int:
        return self.prows * self.pcols

    def rank_of(self, i: int, j: int) -> int:
        return ((i + self.seed) % self.prows) * self.pcols + \
            ((j + self.seed) % self.pcols)

    def tiles_of_rank(self, rank: int, nt: int):
        for i in range(nt):
            for j in range(nt):
                if self.rank_of(i, j) == rank:
                    yield (i, j)


def _observed_record(
    app: str, result: Any, telemetry: Any, *, config: Dict[str, Any],
    seed: int, backend_name: str, overrides: Any = None,
) -> BenchRecord:
    """Assemble a BenchRecord from a driver result + its telemetry."""
    from repro.telemetry import analyze

    stats = dict(result.stats)
    cp = analyze.critical_path(telemetry)
    ranks = analyze.idle_breakdown(telemetry)
    avail = sum(r.workers for r in ranks) * cp.makespan
    busy = sum(r.busy for r in ranks)
    counters = {
        k: float(v) for k, v in stats.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    return BenchRecord(
        app=app,
        backend=backend_name,
        config=dict(config),
        seed=seed,
        makespan=result.makespan,
        gflops=float(getattr(result, "gflops", 0.0)),
        tasks_total=int(stats.get("tasks_executed", 0)),
        tasks_by_template=dict(stats.get("tasks_by_template", {})),
        bytes_by_protocol=dict(stats.get("bytes_by_protocol", {})),
        critical_path_fraction=cp.fraction,
        idle_fraction=1.0 - busy / avail if avail > 0 else 0.0,
        counters=counters,
        git_sha=git_sha(),
        cost_overrides=overrides.as_dict() if overrides is not None else {},
    )


def _instrumented_cluster(nodes: int, workers: int, overrides: Any = None):
    """(cluster, telemetry) pair for one watchdog measurement."""
    from repro.sim.cluster import Cluster, HAWK
    from repro.telemetry import Telemetry

    tel = Telemetry(nranks=nodes, capacity=None)
    cluster = Cluster(HAWK.with_workers(workers), nodes, overrides=overrides)
    return cluster, tel


def _tiled_matrix(seed: int, p: Dict[str, Any]) -> Any:
    from repro.linalg import TiledMatrix

    return TiledMatrix(p["n"], p["b"],
                       SeededBlockCyclic.for_ranks(p["nodes"], seed),
                       synthetic=True)


def _yukawa_matrix(seed: int, p: Dict[str, Any]) -> Any:
    # The atom layout is seeded, so each seed has its own sparsity pattern
    # (and thus communication volume) rather than its own tile map.
    from repro.linalg import yukawa_blocksparse

    return yukawa_blocksparse(p["natoms"], target_tile=p["target_tile"],
                              seed=seed)


def _gaussians(seed: int, p: Dict[str, Any]) -> Any:
    from repro.apps.mra import random_gaussians

    return random_gaussians(p["nfuncs"], seed=seed)


def _run_potrf(a: Any, backend: Any, p: Dict[str, Any]) -> Any:
    from repro.apps.cholesky import cholesky_ttg

    return cholesky_ttg(a, backend)


def _run_fw(w: Any, backend: Any, p: Dict[str, Any]) -> Any:
    from repro.apps.floydwarshall import floyd_warshall_ttg

    return floyd_warshall_ttg(w, backend)


def _run_bspmm(a: Any, backend: Any, p: Dict[str, Any]) -> Any:
    from repro.apps.bspmm import bspmm_ttg

    return bspmm_ttg(a, a, backend)


def _run_mra(functions: Any, backend: Any, p: Dict[str, Any]) -> Any:
    # Tree-structured, so no Gflop/s figure: only makespan/task/byte
    # metrics are gated.
    from repro.apps.mra import mra_ttg

    return mra_ttg(functions, backend, k=p["k"], thresh=1.0e-4, max_level=6)


@dataclass(frozen=True)
class AppRow:
    """How :func:`measure` runs one watchdog application.

    ``params`` are the app's parameters with their defaults, in record
    order; every app also takes ``nodes`` and ``workers``
    (:data:`COMMON_PARAMS`).  ``config_names`` renames a parameter in the
    record's config (bspmm's ``target_tile`` is stored as ``tile``).
    """

    inputs: Callable[[int, Dict[str, Any]], Any]
    driver: Callable[[Any, Any, Dict[str, Any]], Any]
    params: Dict[str, Any]
    config_names: Dict[str, str] = field(default_factory=dict)

    def config(self, p: Dict[str, Any]) -> Dict[str, Any]:
        """The record config of parameters ``p``."""
        config: Dict[str, Any] = {"machine": "hawk"}
        for name in (*COMMON_PARAMS, *self.params):
            config[self.config_names.get(name, name)] = p[name]
        return config

    def params_of(self, config: Dict[str, Any]) -> Dict[str, Any]:
        """The :func:`measure` parameters a record config was taken with."""
        names = {self.config_names.get(n, n): n
                 for n in (*COMMON_PARAMS, *self.params)}
        return {names.get(key, key): value for key, value in config.items()
                if key != "machine"}


#: Parameters every watchdog app takes, with their defaults.
COMMON_PARAMS: Dict[str, Any] = {"nodes": 4, "workers": 4}

#: The watchdog matrix: one row per application.
APPS: Dict[str, AppRow] = {
    "potrf": AppRow(_tiled_matrix, _run_potrf, {"n": 1024, "b": 128}),
    "fw": AppRow(_tiled_matrix, _run_fw, {"n": 896, "b": 128}),
    "bspmm": AppRow(_yukawa_matrix, _run_bspmm,
                    {"natoms": 30, "target_tile": 24},
                    config_names={"target_tile": "tile"}),
    "mra": AppRow(_gaussians, _run_mra, {"nfuncs": 8, "k": 4}),
}


def _row(app: str) -> AppRow:
    row = APPS.get(app)
    if row is None:
        raise ValueError(
            f"unknown watchdog app {app!r} (have: {sorted(APPS)})")
    return row


def measure(
    app: str, seed: int = 0, *,
    overrides: Any = None,
    telemetry_out: Optional[List[Any]] = None,
    **params: Any,
) -> BenchRecord:
    """One telemetry-instrumented run of ``app`` on the scaled Hawk
    machine.  ``params`` override the row's defaults (:data:`APPS`)."""
    from repro.runtime import ParsecBackend
    from repro.sim.cluster import CostOverrides

    row = _row(app)
    unknown = set(params) - set(COMMON_PARAMS) - set(row.params)
    if unknown:
        raise TypeError(f"measure({app!r}) got unknown parameter(s) "
                        f"{sorted(unknown)}")
    p = dict(COMMON_PARAMS, **row.params)
    p.update(params)
    ov = CostOverrides.coerce(overrides)
    inputs = row.inputs(seed, p)
    cluster, tel = _instrumented_cluster(p["nodes"], p["workers"],
                                         overrides=ov)
    backend = ParsecBackend(cluster, telemetry=tel)
    res = row.driver(inputs, backend, p)
    if telemetry_out is not None:
        telemetry_out.append(tel)
    return _observed_record(app, res, tel, config=row.config(p), seed=seed,
                            backend_name="parsec", overrides=ov)


def measure_cell(spec: Dict[str, Any]) -> BenchRecord:
    """Measure one (app, seed) cell described by a plain dict.

    ``spec`` must contain ``app`` and may contain ``seed`` (default 0);
    every other key is passed to :func:`measure`, which rejects unknown
    ones.
    """
    spec = dict(spec)
    app = spec.pop("app")
    seed = spec.pop("seed", 0)
    return measure(app, seed, **spec)


def measure_matrix(
    apps: Sequence[str],
    seeds: Sequence[int] = (0, 1, 2),
) -> Dict[str, List[BenchRecord]]:
    """The records of every (app, seed) cell at the apps' defaults,
    measured inline and grouped by app.  A cell that raises raises."""
    for app in apps:
        _row(app)
    return {app: [measure(app, seed) for seed in seeds] for app in apps}


# ----------------------------------------------------------------- the pins


def record_digest(record: BenchRecord) -> str:
    """16 hex digits of the sha256 of ``record`` as canonical JSON,
    without :data:`UNPINNED_FIELDS`."""
    fields = {k: v for k, v in record.as_dict().items()
              if k not in UNPINNED_FIELDS}
    text = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PinCheck:
    """One watchdog cell measured afresh, against its pin ("" if none)."""

    record: BenchRecord
    pinned: str

    @property
    def measured(self) -> str:
        return record_digest(self.record)

    @property
    def ok(self) -> bool:
        return self.measured == self.pinned

    def row(self) -> str:
        mark = "ok   " if self.ok else "MOVED"
        return (f"{mark} {self.record.app:<6} seed {self.record.seed}  "
                f"pinned {self.pinned or '-':<16}  measured {self.measured}")


def run_watchdog(
    directory: str = ".",
    apps: Optional[Sequence[str]] = None,
    *,
    record: bool = False,
) -> Tuple[List[PinCheck], List[Path]]:
    """Measure the watchdog cells of ``apps`` (default: all of
    :data:`APPS`) at seeds 0, 1 and 2, inline, and check each record
    against its pin; a cell without a pin fails.

    ``record`` appends the fresh records to the ``BENCH_<app>.json``
    files in ``directory``.  Returns one :class:`PinCheck` per cell and
    the paths written (if any).
    """
    fresh = measure_matrix(list(APPS) if apps is None else apps)
    checks = [PinCheck(r, PINS.get((app, r.seed), ""))
              for app, records in fresh.items() for r in records]
    written: List[Path] = []
    if record:
        for app, records in fresh.items():
            history = BenchHistory.load_app(app, directory)
            for r in records:
                history.append(r)
            written.append(history.save(directory=directory))
    return checks, written
