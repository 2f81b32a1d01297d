"""Benchmark history: the committed records are the pins.

The paper's evaluation is a *trajectory*: the same four applications
measured repeatedly as runtime features landed.  This module keeps that
trajectory for the reproduction -- one ``BENCH_<app>.json`` file per
application, each an append-only list of the watchdog's
:class:`BenchRecord` runs (makespan, Gflop/s, task/byte breakdowns,
critical-path and idle fractions, a counter snapshot, the git SHA) at
one schema version.  Host time is not recorded here: ``hostbench/``
measures it.

The simulator is deterministic, so every virtual number of a record is a
function of the commit, the app, its parameters, the backend and the
seed.  The watchdog does not judge them as samples: it measures each
cell of :data:`CELLS` afresh and compares the record, field by field,
with the newest committed record of the same cell; any field that
differs (other than :data:`UNPINNED_FIELDS`) fails the check and is
named.  A change that moves a virtual number appends the new records
with ``--check-regressions --record-history`` and says why; the diff of
``BENCH_*.json`` is what its review reads.

CLI (see ``python -m repro.bench --help``)::

    python -m repro.bench --check-regressions                   # CI gate
    python -m repro.bench --check-regressions --record-history  # move a pin
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.linalg import BlockCyclicDistribution, TiledMatrix

SCHEMA = "repro.bench/history"
SCHEMA_VERSION = 5

#: Record fields the watchdog does not compare: they describe the commit,
#: not the simulated run.
UNPINNED_FIELDS = ("git_sha",)


def git_sha() -> str:
    """Short SHA of the checkout's HEAD at measure time, or "" outside a
    git checkout.  ``-dirty`` is appended when tracked files differ from
    HEAD (``git describe --dirty``): such a record was measured on
    uncommitted code, not on the named commit."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--exclude=*"],
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
    # the recorded factors so probe overrides compose exactly.  The
    # watchdog compares it, so a perturbed run never matches a pin.
    cost_overrides: Dict[str, Any] = field(default_factory=dict)

    @property
    def config_key(self) -> str:
        """Canonical group key: records with equal keys are comparable."""
        cfg = ",".join(f"{k}={self.config[k]}" for k in sorted(self.config))
        return f"{self.backend}|{cfg}"

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "BenchRecord":
        """The record ``obj`` holds; a missing or unknown key raises
        ``ValueError`` naming it."""
        names = {f.name for f in dataclasses.fields(cls)}
        missing = sorted(names - obj.keys())
        if missing:
            raise ValueError(f"record lacks key {missing[0]!r}")
        unknown = sorted(obj.keys() - names)
        if unknown:
            raise ValueError(f"record has unknown key {unknown[0]!r}")
        return cls(**obj)


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
        records = []
        for i, obj in enumerate(payload.get("records", [])):
            try:
                records.append(BenchRecord.from_dict(obj))
            except ValueError as exc:
                raise ValueError(f"{path}: record {i}: {exc}") from None
        return cls(payload["app"], records)

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

    def pin(self, record: BenchRecord) -> Optional[BenchRecord]:
        """The newest record of ``record``'s cell (same config key and
        seed): the one its simulated numbers are compared with.  None if
        the cell has no record."""
        for stored in reversed(self.records):
            if stored.config_key == record.config_key and \
                    stored.seed == record.seed:
                return stored
        return None

    def __len__(self) -> int:
        return len(self.records)


def select_record(records: List[BenchRecord], selector: str) -> BenchRecord:
    """Pick one record out of a BENCH history: ``last``, ``seed:<n>``
    (the last record of that seed) or ``index:<i>``."""
    if not records:
        raise ValueError("empty record list")
    if selector == "last":
        return records[-1]
    kind, _, number = selector.partition(":")
    try:
        n = int(number) if kind in ("seed", "index") else None
    except ValueError:
        n = None
    if n is None:
        raise ValueError(f"unknown record selector {selector!r} "
                         "(use last|seed:<n>|index:<i>)")
    if kind == "seed":
        matches = [r for r in records if r.seed == n]
        if not matches:
            raise ValueError(f"no record with seed {n}")
        return matches[-1]
    if not -len(records) <= n < len(records):
        raise ValueError(f"record index {n} out of range: the "
                         f"history has {len(records)} record(s)")
    return records[n]


# ------------------------------------------------------------- measurement


# hostbench/ imports the tile map under this name (test_hostbench_names_resolve checks it).
SeededBlockCyclic = BlockCyclicDistribution


def _observed_record(
    app: str, result: Any, backend: Any, telemetry: Any, *,
    config: Dict[str, Any], seed: int, backend_name: str,
    overrides: Any = None,
) -> BenchRecord:
    """Assemble a BenchRecord from a driver result, its backend and its
    telemetry."""
    from repro.telemetry import analyze

    stats = dict(result.stats)
    cp = analyze.critical_path(telemetry)
    ranks = analyze.idle_breakdown(telemetry)
    avail = sum(r.workers for r in ranks) * cp.makespan
    busy = sum(r.busy for r in ranks)
    # makespan and tasks_executed are the record's own fields.
    counters = {
        k: float(v) for k, v in stats.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
        and k not in ("makespan", "tasks_executed")
    }
    counters["events_processed"] = float(backend.engine.events_processed)
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


def _tiled_matrix(seed: int, p: Dict[str, Any]) -> Any:
    return TiledMatrix(p["n"], p["b"],
                       BlockCyclicDistribution.for_ranks(p["nodes"], seed),
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

    def parameters(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``params`` over the defaults; an unknown name raises
        ``TypeError``."""
        unknown = set(params) - set(COMMON_PARAMS) - set(self.params)
        if unknown:
            raise TypeError(f"unknown parameter(s) {sorted(unknown)}")
        return {**COMMON_PARAMS, **self.params, **params}

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


#: The backends a cell can run on (see :func:`measure`).
BACKENDS = ("parsec", "madness")

#: The cells the watchdog measures, in order, as :func:`measure_cell`
#: specs.  The newest committed record of each cell in its
#: ``BENCH_<app>.json`` holds that cell's simulated numbers.  First every
#: app of :data:`APPS` at its defaults on PaRSEC, at seeds 0, 1 and 2;
#: then the tier-1 cells of ``tests/test_cell_statistics_pinned.py``:
#: POTRF, FW and BSPMM on both backends with Hawk's 60 workers per node.
CELLS: Tuple[Dict[str, Any], ...] = (
    *({"app": app, "backend": "parsec", "seed": seed}
      for app in APPS for seed in (0, 1, 2)),
    *({"app": app, "backend": backend, "seed": 0, "workers": 60, **params}
      for app, params in (("potrf", {}), ("fw", {"n": 1024}),
                          ("bspmm", {"natoms": 8}))
      for backend in BACKENDS),
)


def _row(app: str) -> AppRow:
    row = APPS.get(app)
    if row is None:
        raise ValueError(
            f"unknown watchdog app {app!r} (have: {sorted(APPS)})")
    return row


def measure(
    app: str, seed: int = 0, *,
    backend: str = "parsec",
    overrides: Any = None,
    telemetry_out: Optional[List[Any]] = None,
    **params: Any,
) -> BenchRecord:
    """One telemetry-instrumented run of ``app`` on the scaled Hawk
    machine, on the ``backend`` of :data:`BACKENDS`.  ``params`` override
    the row's defaults (:data:`APPS`)."""
    from repro.runtime import MadnessBackend, ParsecBackend
    from repro.sim.cluster import HAWK, Cluster, CostOverrides
    from repro.telemetry import Telemetry

    row = _row(app)
    backend_cls = {"parsec": ParsecBackend,
                   "madness": MadnessBackend}.get(backend)
    if backend_cls is None:
        raise ValueError(f"unknown backend {backend!r} (have: {BACKENDS})")
    p = row.parameters(params)
    ov = CostOverrides.coerce(overrides)
    inputs = row.inputs(seed, p)
    tel = Telemetry(nranks=p["nodes"], capacity=None)
    runtime = backend_cls(
        Cluster(HAWK.with_workers(p["workers"]), p["nodes"], overrides=ov),
        telemetry=tel)
    res = row.driver(inputs, runtime, p)
    if telemetry_out is not None:
        telemetry_out.append(tel)
    return _observed_record(app, res, runtime, tel, config=row.config(p),
                            seed=seed, backend_name=backend, overrides=ov)


def measure_cell(spec: Dict[str, Any]) -> BenchRecord:
    """Measure one cell described by a plain dict (see :data:`CELLS`).

    ``spec`` must contain ``app`` and may contain ``seed`` (default 0);
    every other key is passed to :func:`measure`, which rejects unknown
    ones.
    """
    spec = dict(spec)
    app = spec.pop("app")
    seed = spec.pop("seed", 0)
    return measure(app, seed, **spec)


# ----------------------------------------------------------------- the pins


def moved_fields(pin: BenchRecord, record: BenchRecord) -> List[str]:
    """The fields of ``record`` that differ from its ``pin``, in record
    order, leaving out :data:`UNPINNED_FIELDS`."""
    old = pin.as_dict()
    return [k for k, v in record.as_dict().items()
            if k not in UNPINNED_FIELDS and old[k] != v]


def _delta_rows(a: Dict[str, Any], b: Dict[str, Any]
                ) -> List[Tuple[str, float, float, float]]:
    """Rows of ``(key, a, b, b - a)`` over the keys of both sides, sorted,
    a key missing on one side reading 0."""
    rows = []
    for key in sorted(set(a) | set(b)):
        va, vb = float(a.get(key, 0.0)), float(b.get(key, 0.0))
        rows.append((key, va, vb, vb - va))
    return rows


def record_diff(pin: BenchRecord,
                record: BenchRecord) -> Tuple[str, Dict[str, Any]]:
    """What moved from ``pin`` to ``record``: task counts per template,
    bytes per protocol and counters.  Returns the text block
    ``--explain`` prints and the ``diff`` object of its
    ``rootcause-<app>.json``.  Unchanged rows are left out of the text."""
    a, b = (f"{r.app} seed {r.seed} @{r.git_sha or '?'}" for r in (pin, record))
    ma, mb = float(pin.makespan), float(record.makespan)
    d = mb - ma
    counts = [(name, int(pin.tasks_by_template.get(name, 0)),
               int(record.tasks_by_template.get(name, 0)))
              for name in sorted(set(pin.tasks_by_template)
                                 | set(record.tasks_by_template))]
    counts.sort(key=lambda t: -abs(t[2] - t[1]))
    protocols = _delta_rows(pin.bytes_by_protocol, record.bytes_by_protocol)
    counters = _delta_rows(pin.counters, record.counters)

    pct = 100.0 * d / ma if ma else 0.0
    lines = [f"run diff: A = {a}   B = {b}",
             f"makespan: {ma * 1e3:.3f} ms -> {mb * 1e3:.3f} ms "
             f"({d * 1e3:+.3f} ms, {pct:+.1f}%)"]
    if counts:
        lines += ["", f"{'template':<16}{'count A':>10}{'count B':>10}"
                      f"{'delta':>8}"]
        lines += [f"{name:<16}{ca:>10}{cb:>10}{cb - ca:>+8}"
                  for name, ca, cb in counts if cb != ca]
    if protocols:
        lines += ["", f"{'protocol bytes':<20}{'A':>14}{'B':>14}{'delta':>14}"]
        lines += [f"{c:<20}{va:>14.6g}{vb:>14.6g}{dv:>+14.6g}"
                  for c, va, vb, dv in protocols if dv != 0.0]
    changed = [row for row in counters if row[3] != 0.0]
    if changed:
        lines += ["", f"{'counter':<52}{'A':>14}{'B':>14}{'delta':>14}"]
        lines += [f"{k:<52}{va:>14.6g}{vb:>14.6g}{dv:>+14.6g}"
                  for k, va, vb, dv in changed]
    return "\n".join(lines), {
        "a": a, "b": b,
        "makespan": {"a": ma, "b": mb, "delta": d},
        "templates": [{"template": name, "count_a": ca, "count_b": cb,
                       "delta": cb - ca} for name, ca, cb in counts],
        "bytes_by_protocol": [{"channel": c, "a": va, "b": vb, "delta": dv}
                              for c, va, vb, dv in protocols],
        "counters": [{"counter": k, "a": va, "b": vb, "delta": dv}
                     for k, va, vb, dv in counters],
    }


def run_watchdog(
    directory: str = ".",
    apps: Optional[Sequence[str]] = None,
    *,
    record: bool = False,
) -> Tuple[List[Tuple[BenchRecord, Optional[BenchRecord]]], List[Path]]:
    """Measure the cells of :data:`CELLS` (narrowed to ``apps``), inline,
    and pair each fresh record with its pin: the newest record of its
    cell in the ``BENCH_<app>.json`` files of ``directory``, or None.

    ``record`` then appends the fresh records to those files.  Returns
    the ``(fresh, pin)`` pairs in :data:`CELLS` order and the paths
    written (if any).
    """
    for app in apps or ():
        _row(app)
    fresh = [measure_cell(c) for c in CELLS
             if apps is None or c["app"] in apps]
    histories = {r.app: BenchHistory.load_app(r.app, directory)
                 for r in fresh}
    pairs = [(r, histories[r.app].pin(r)) for r in fresh]
    written: List[Path] = []
    if record:
        for r in fresh:
            histories[r.app].append(r)
        written = [h.save(directory=directory) for h in histories.values()]
    return pairs, written
