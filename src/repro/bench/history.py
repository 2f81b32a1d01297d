"""Versioned benchmark history and the statistical regression watchdog.

The paper's evaluation is a *trajectory*: the same four applications
measured repeatedly as runtime features landed.  This module keeps that
trajectory for the reproduction -- one ``BENCH_<app>.json`` file per
application, each an append-only list of :class:`BenchRecord` runs
(makespan, Gflop/s, task/byte breakdowns, critical-path and idle
fractions, a counter snapshot, the git SHA) -- and compares new runs
against the stored baseline window with robust statistics so a future PR
cannot silently regress POTRF or FW-APSP.

Because the simulator is deterministic, a distribution is obtained by
sweeping *seeds*: each seed rotates the block-cyclic tile-to-rank map
(:class:`SeededBlockCyclic`), which keeps the DAG and total work
identical while perturbing the communication pattern, so makespans vary
the way real placement jitter makes them vary.

Regression rule (per config group and metric): candidate median vs.
baseline median must not move in the "worse" direction by more than
``max(threshold * baseline_median, 3 * 1.4826 * MAD(baseline))``.

CLI (see ``python -m repro.bench --help``)::

    python -m repro.bench --record-history --update-baseline   # seed sweep
    python -m repro.bench --check-regressions                  # CI gate
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

SCHEMA = "repro.bench/history"
SCHEMA_VERSION = 4

#: Baseline windows smaller than this make the MAD spread degenerate
#: (MAD of <3 samples is 0 or half a range), so :func:`classify` falls
#: back to the pure relative-threshold margin and flags the verdict.
MIN_ROBUST_BASELINE = 3

#: Relative tolerance per gated metric (fraction of the baseline median).
DEFAULT_THRESHOLDS: Dict[str, float] = {
    "makespan": 0.10,
    "gflops": 0.10,
    "bytes_by_protocol.splitmd": 0.25,
    "bytes_by_protocol.eager": 0.25,
}

#: Metrics the watchdog gates on, with the direction that is "better".
#: Dotted names index into a record's dict fields; the protocol split is
#: gated so a serialization regression (splitmd traffic silently falling
#: back to eager) fails CI even when the makespan barely moves.
GATED_METRICS: Dict[str, str] = {
    "makespan": "lower",
    "gflops": "higher",
    "bytes_by_protocol.splitmd": "higher",
    "bytes_by_protocol.eager": "lower",
}

#: MAD -> sigma consistency constant for normal data.
_MAD_SIGMA = 1.4826


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
    baseline: bool = False
    # v3: the host wall-clock cost of producing this record and the event
    # engine that produced it.  There is one engine now and every record
    # says "seq"; older records may name the deleted "sharded" engine,
    # which replayed the same event order, so the engine stays OUT of
    # config_key -- every record remains comparable.
    host_seconds: float = 0.0
    engine: str = "seq"
    # v4: the what-if cost overrides active during this run (see
    # repro.sim.cluster.CostOverrides.as_dict; {} = unperturbed).  Kept
    # OUT of config_key on purpose: a synthetically perturbed run must
    # gate against the clean baselines -- that is the whole point of
    # injecting regressions -- and the what-if replayer needs to know the
    # recorded factors so probe overrides compose exactly.
    cost_overrides: Dict[str, Any] = field(default_factory=dict)

    @property
    def config_key(self) -> str:
        """Canonical group key: records with equal keys are comparable."""
        cfg = ",".join(f"{k}={self.config[k]}" for k in sorted(self.config))
        return f"{self.backend}|{cfg}"

    def metric(self, name: str) -> float:
        """Metric by name; dotted names index into dict fields, e.g.
        ``bytes_by_protocol.splitmd`` (missing keys read as 0.0)."""
        if "." in name:
            attr, key = name.split(".", 1)
            return float(getattr(self, attr).get(key, 0.0))
        return float(getattr(self, name))

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
            "baseline": self.baseline,
            "host_seconds": self.host_seconds,
            "engine": self.engine,
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
            baseline=bool(obj.get("baseline", False)),
            host_seconds=float(obj.get("host_seconds", 0.0)),
            engine=obj.get("engine", "seq"),
            cost_overrides=dict(obj.get("cost_overrides", {})),
        )


def _migrate_v1(payload: Dict[str, Any]) -> Dict[str, Any]:
    """v1 -> v2: records gained protocol/critical-path/idle fields and the
    counter snapshot was renamed ``metrics`` -> ``counters``."""
    for rec in payload.get("records", []):
        rec.setdefault("bytes_by_protocol", {})
        rec.setdefault("critical_path_fraction", 0.0)
        rec.setdefault("idle_fraction", 0.0)
        if "counters" not in rec:
            rec["counters"] = rec.pop("metrics", {})
    payload["version"] = 2
    return payload


def _migrate_v2(payload: Dict[str, Any]) -> Dict[str, Any]:
    """v2 -> v3: records gained the host wall-clock cost and the event
    engine that produced them (pre-v3 runs were all sequential)."""
    for rec in payload.get("records", []):
        rec.setdefault("host_seconds", 0.0)
        rec.setdefault("engine", "seq")
    payload["version"] = 3
    return payload


def _migrate_v3(payload: Dict[str, Any]) -> Dict[str, Any]:
    """v3 -> v4: records gained the what-if cost-override stamp (pre-v4
    runs were all unperturbed)."""
    for rec in payload.get("records", []):
        rec.setdefault("cost_overrides", {})
    payload["version"] = 4
    return payload


#: version -> migration to the *next* version, applied in sequence.
_MIGRATIONS: Dict[int, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    1: _migrate_v1,
    2: _migrate_v2,
    3: _migrate_v3,
}


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
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
            raise ValueError(f"{path}: not a {SCHEMA} file")
        version = int(payload.get("version", 1))
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"{path}: schema version {version} is newer than this "
                f"code's {SCHEMA_VERSION}"
            )
        while version < SCHEMA_VERSION:
            payload = _MIGRATIONS[version](payload)
            version = int(payload["version"])
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

    def config_keys(self) -> List[str]:
        out: List[str] = []
        for r in self.records:
            if r.config_key not in out:
                out.append(r.config_key)
        return out

    def group(self, config_key: str) -> List[BenchRecord]:
        return [r for r in self.records if r.config_key == config_key]

    def baselines(self, config_key: str) -> List[BenchRecord]:
        return [r for r in self.group(config_key) if r.baseline]

    def candidates(self, config_key: str) -> List[BenchRecord]:
        """Non-baseline records recorded *after* the group's last baseline."""
        group = self.group(config_key)
        last = -1
        for i, r in enumerate(group):
            if r.baseline:
                last = i
        return [r for r in group[last + 1:] if not r.baseline]

    def prune(self, keep: int, *, keep_baselines: bool = True) -> int:
        """Compact the append-only history in place.

        Keeps, per config group, the most recent ``keep`` non-baseline
        records; baseline records are kept unconditionally unless
        ``keep_baselines=False`` (then only each group's *latest* baseline
        sweep -- the one the watchdog actually compares against -- is
        kept).  Relative record order is preserved.  Returns the number of
        records dropped.
        """
        if keep < 0:
            raise ValueError("keep must be >= 0")
        drop: set = set()
        for key in self.config_keys():
            group = [(i, r) for i, r in enumerate(self.records)
                     if r.config_key == key]
            nonbase = [i for i, r in group if not r.baseline]
            drop.update(nonbase[:-keep] if keep else nonbase)
            if not keep_baselines:
                base = [i for i, r in group if r.baseline]
                # The latest contiguous baseline run is the active one.
                active: List[int] = []
                for i in base:
                    if active and any(
                        not self.records[j].baseline
                        for j in range(active[-1] + 1, i)
                    ):
                        active = []
                    active.append(i)
                drop.update(set(base) - set(active))
        before = len(self.records)
        self.records = [r for i, r in enumerate(self.records) if i not in drop]
        return before - len(self.records)

    def __len__(self) -> int:
        return len(self.records)


# --------------------------------------------------------------- statistics


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of empty sequence")
    xs = sorted(values)
    n = len(xs)
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def mad(values: Sequence[float], center: Optional[float] = None) -> float:
    """Median absolute deviation (unscaled)."""
    if not values:
        raise ValueError("mad of empty sequence")
    c = median(values) if center is None else center
    return median([abs(x - c) for x in values])


def robust_stats(values: Sequence[float]) -> Tuple[float, float]:
    """(median, sigma-consistent MAD spread) of a sample."""
    m = median(values)
    return m, _MAD_SIGMA * mad(values, m)


@dataclass
class MetricVerdict:
    """The watchdog's decision for one (config group, metric)."""

    app: str
    config_key: str
    metric: str
    status: str              # "improved" | "regressed" | "unchanged" | "no-baseline"
    baseline_median: float = 0.0
    baseline_spread: float = 0.0
    candidate_median: float = 0.0
    n_baseline: int = 0
    n_candidate: int = 0
    gating: bool = True
    note: str = ""           # e.g. the small-baseline-window warning

    @property
    def delta_pct(self) -> float:
        if self.baseline_median == 0.0:
            return 0.0
        return 100.0 * (self.candidate_median - self.baseline_median) / self.baseline_median

    def row(self) -> str:
        mark = {"regressed": "!!", "improved": "++", "unchanged": "  ",
                "no-baseline": "??"}[self.status]
        suffix = f"  ({self.note})" if self.note else ""
        return (f"{mark} {self.app:<8} {self.metric:<10} "
                f"{self.baseline_median:12.6g} -> {self.candidate_median:12.6g} "
                f"({self.delta_pct:+6.2f}%)  [{self.status}]  {self.config_key}"
                f"{suffix}")


@dataclass
class RegressionReport:
    """Every verdict of one watchdog pass."""

    verdicts: List[MetricVerdict] = field(default_factory=list)
    thresholds: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))

    @property
    def regressions(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.status == "regressed" and v.gating]

    @property
    def improvements(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.status == "improved"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        if not self.verdicts:
            return "benchmark watchdog: nothing to check (no baselines/candidates)"
        lines = [v.row() for v in self.verdicts]
        lines.append(
            f"benchmark watchdog: {len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s) across "
            f"{len(self.verdicts)} checks"
        )
        return "\n".join(lines)


def classify(
    baseline: Sequence[float],
    candidates: Sequence[float],
    threshold: float,
    better: str = "lower",
) -> Tuple[str, float, float, float, str]:
    """Compare candidate vs. baseline samples of one metric.

    Returns ``(status, baseline_median, baseline_spread, candidate_median,
    note)``.  The move must exceed ``max(threshold * |median|, 3 * spread)``
    in either direction to count as a change; the sign + ``better`` decide
    which.

    With fewer than :data:`MIN_ROBUST_BASELINE` baseline samples the MAD
    spread is degenerate (one sample: exactly 0; two samples: half the
    range, still no robust scale) and would silently collapse the margin
    to the pure ``threshold * |median|`` term.  The fallback is now
    *explicit*: the spread term is dropped entirely and ``note`` carries a
    warning the verdict surfaces, rather than pretending a 0.0 MAD was a
    measured spread.
    """
    m_b, spread = robust_stats(baseline)
    m_c = median(candidates)
    note = ""
    if len(baseline) < MIN_ROBUST_BASELINE:
        note = (f"small baseline window (n={len(baseline)} < "
                f"{MIN_ROBUST_BASELINE}): MAD unreliable, margin is "
                f"threshold-only")
        spread = 0.0
    if m_b == 0.0 and m_c == 0.0:
        return "unchanged", m_b, spread, m_c, note
    margin = max(threshold * abs(m_b), 3.0 * spread)
    delta = m_c - m_b
    if abs(delta) <= margin:
        return "unchanged", m_b, spread, m_c, note
    worse = delta > 0 if better == "lower" else delta < 0
    return ("regressed" if worse else "improved"), m_b, spread, m_c, note


def check_history(
    history: BenchHistory,
    extra_candidates: Iterable[BenchRecord] = (),
    thresholds: Optional[Dict[str, float]] = None,
) -> RegressionReport:
    """Run the watchdog over one app's history (+ fresh measurements).

    Candidates are the trailing non-baseline records of each config group
    plus any ``extra_candidates`` (fresh runs not yet persisted).  Groups
    without candidates are skipped; candidates without a baseline produce
    a non-gating ``no-baseline`` verdict.
    """
    thresholds = dict(DEFAULT_THRESHOLDS, **(thresholds or {}))
    extras = list(extra_candidates)
    merged = BenchHistory(history.app, history.records + extras)
    report = RegressionReport(thresholds=thresholds)
    for key in merged.config_keys():
        base = history.baselines(key)
        cands = history.candidates(key) + [r for r in extras if r.config_key == key]
        if not cands:
            continue
        for metric, better in GATED_METRICS.items():
            if not base:
                report.verdicts.append(MetricVerdict(
                    history.app, key, metric, "no-baseline",
                    candidate_median=median([r.metric(metric) for r in cands]),
                    n_candidate=len(cands), gating=False,
                ))
                continue
            bvals = [r.metric(metric) for r in base]
            cvals = [r.metric(metric) for r in cands]
            if all(v == 0.0 for v in bvals + cvals):
                continue   # metric not recorded for this app (e.g. figure-only)
            status, m_b, spread, m_c, note = classify(
                bvals, cvals, thresholds.get(metric, 0.10), better
            )
            report.verdicts.append(MetricVerdict(
                history.app, key, metric, status,
                baseline_median=m_b, baseline_spread=spread,
                candidate_median=m_c, n_baseline=len(base),
                n_candidate=len(cands), note=note,
            ))
        # Host wall-clock cost: reported, never gated (CI runners and
        # laptops are not comparable machines).
        if base:
            b_host = [r.metric("host_seconds") for r in base]
            c_host = [r.metric("host_seconds") for r in cands]
            if any(b_host) and any(c_host):
                m_b, m_c = median(b_host), median(c_host)
                report.verdicts.append(MetricVerdict(
                    history.app, key, "host_seconds",
                    "unchanged" if m_b == m_c
                    else ("improved" if m_c < m_b else "regressed"),
                    baseline_median=m_b, candidate_median=m_c,
                    n_baseline=len(base), n_candidate=len(cands),
                    gating=False,
                ))
        # Task counts must not drift silently within one config: report
        # (non-gating) when the candidate DAG executed a different number
        # of tasks than the baseline DAG.
        if base:
            b_tasks = median([float(r.tasks_total) for r in base])
            c_tasks = median([float(r.tasks_total) for r in cands])
            if b_tasks != c_tasks and (b_tasks or c_tasks):
                report.verdicts.append(MetricVerdict(
                    history.app, key, "tasks_total", "improved"
                    if c_tasks < b_tasks else "regressed",
                    baseline_median=b_tasks, candidate_median=c_tasks,
                    n_baseline=len(base), n_candidate=len(cands),
                    gating=False,
                ))
    return report


# ------------------------------------------------------------- measurement


class SeededBlockCyclic:
    """Block-cyclic tile map rotated by ``seed`` -- same grid, same DAG,
    different owners, so a seed sweep yields a makespan distribution from
    a fully deterministic simulator."""

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
    seed: int, backend_name: str, host_seconds: float = 0.0,
    overrides: Any = None,
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
        host_seconds=host_seconds,
        cost_overrides=overrides.as_dict() if overrides is not None else {},
    )


def _instrumented_cluster(nodes: int, workers: int, overrides: Any = None):
    """(cluster, telemetry) pair for one watchdog measurement."""
    from repro.sim.cluster import Cluster, HAWK
    from repro.telemetry import Telemetry

    tel = Telemetry(nranks=nodes, capacity=None)
    cluster = Cluster(HAWK.with_workers(workers), nodes, overrides=overrides)
    return cluster, tel


def _coerce_overrides(overrides: Any) -> Any:
    """Normalize an ``overrides`` kwarg (CostOverrides | dict | None).

    Dicts are the picklable form used by fork-pool cell specs; both
    round-trip through :meth:`repro.sim.cluster.CostOverrides.as_dict`.
    """
    if overrides is None:
        return None
    from repro.sim.cluster import CostOverrides

    return CostOverrides.coerce(overrides)


def _tiled_matrix(seed: int, p: Dict[str, Any]) -> Any:
    from repro.linalg import TiledMatrix

    return TiledMatrix(p["n"], p["b"],
                       SeededBlockCyclic.for_ranks(p["nodes"], seed),
                       synthetic=True)


def _yukawa_matrix(seed: int, p: Dict[str, Any]) -> Any:
    # The atom layout is seeded, so the seed sweep perturbs the sparsity
    # pattern (and thus the communication volume) rather than the tile map.
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
    from time import perf_counter

    from repro.runtime import ParsecBackend

    row = _row(app)
    unknown = set(params) - set(COMMON_PARAMS) - set(row.params)
    if unknown:
        raise TypeError(f"measure({app!r}) got unknown parameter(s) "
                        f"{sorted(unknown)}")
    p = dict(COMMON_PARAMS, **row.params)
    p.update(params)
    ov = _coerce_overrides(overrides)
    inputs = row.inputs(seed, p)
    cluster, tel = _instrumented_cluster(p["nodes"], p["workers"],
                                         overrides=ov)
    backend = ParsecBackend(cluster, telemetry=tel)
    t0 = perf_counter()
    res = row.driver(inputs, backend, p)
    host = perf_counter() - t0
    if telemetry_out is not None:
        telemetry_out.append(tel)
    return _observed_record(app, res, tel, config=row.config(p), seed=seed,
                            backend_name="parsec", host_seconds=host,
                            overrides=ov)


def measure_cell(spec: Dict[str, Any]) -> BenchRecord:
    """Measure one (app, seed) cell described by a plain dict.

    Module-level and driven by picklable inputs/outputs, so it can cross a
    process boundary: :func:`repro.bench.parallel.run_cells` maps a list
    of these specs over a worker pool.  ``spec`` must contain ``app`` and
    ``seed``; an ``engine`` key, if any, must name a kind of
    :data:`repro.sim.engine.ENGINE_KINDS`; every other key is passed to
    :func:`measure`.
    """
    from repro.durability import chaos
    from repro.sim.engine import ENGINE_KINDS

    spec = dict(spec)
    app = spec.pop("app")
    seed = spec.pop("seed", 0)
    engine = spec.pop("engine", "seq")
    if engine not in ENGINE_KINDS:
        raise ValueError(
            f"unknown engine kind {engine!r}; known: {ENGINE_KINDS}")
    _row(app)
    # Fault-injection site: a FaultPlan targeting this (app, seed) cell
    # fires here -- including inside a forked pool worker, which is how
    # the resilience suite exercises run_cells' retry path.
    chaos.poke("cell", app=app, seed=seed)
    return measure(app, seed, **spec)


def measure_matrix(
    apps: Sequence[str] = ("potrf", "fw"),
    seeds: Sequence[int] = (0, 1, 2),
    *,
    parallel: int = 0,
    overrides: Optional[Dict[str, Any]] = None,
) -> Dict[str, List[BenchRecord]]:
    """Seed-swept measurements of the watchdog matrix, grouped by app.

    ``parallel > 1`` fans the (app, seed) cells out over that
    many worker processes (run-granularity host parallelism -- see
    :mod:`repro.bench.parallel`; results are deterministic and ordered
    regardless).  ``overrides`` (a plain
    :meth:`~repro.sim.cluster.CostOverrides.as_dict` mapping, so cells
    stay picklable) perturbs every cell's costs -- the synthetic-regression
    injection hook behind ``--slowdown``.
    """
    for app in apps:
        _row(app)
    cells = []
    for app in apps:
        for seed in seeds:
            cell: Dict[str, Any] = {"app": app, "seed": seed}
            if overrides:
                cell["overrides"] = dict(overrides)
            cells.append(cell)
    if parallel > 1:
        from repro.bench.parallel import run_cells

        records = run_cells(cells, processes=parallel)
    else:
        records = [measure_cell(c) for c in cells]
    out: Dict[str, List[BenchRecord]] = {app: [] for app in apps}
    for rec in records:
        out[rec.app].append(rec)
    return out


def run_watchdog(
    directory: str = ".",
    apps: Sequence[str] = ("potrf", "fw"),
    seeds: Sequence[int] = (0, 1, 2),
    *,
    measure: bool = True,
    record: bool = False,
    update_baseline: bool = False,
    thresholds: Optional[Dict[str, float]] = None,
    parallel: int = 0,
    overrides: Optional[Dict[str, Any]] = None,
    fresh_out: Optional[Dict[str, List[BenchRecord]]] = None,
) -> Tuple[List[RegressionReport], List[Path]]:
    """The full record / baseline / check cycle the CLI drives.

    - ``measure``: run the seed-swept matrix and use the fresh records as
      candidates (plus any trailing non-baseline records already stored).
    - ``record``: append the fresh records to the ``BENCH_*.json`` files.
    - ``update_baseline``: mark the fresh records as baseline.
    - ``parallel`` / ``overrides``: forwarded to
      :func:`measure_matrix`.
    - ``fresh_out``: when given, filled with the fresh per-app records so
      the caller can root-cause a failure without re-measuring (the
      ``--explain`` path).
    Returns the per-app reports and the paths written (if any).
    """
    fresh = (measure_matrix(apps, seeds, parallel=parallel,
                            overrides=overrides)
             if measure else {a: [] for a in apps})
    if fresh_out is not None:
        fresh_out.update(fresh)
    reports: List[RegressionReport] = []
    written: List[Path] = []
    for app in apps:
        history = BenchHistory.load_app(app, directory)
        records = fresh.get(app, [])
        if update_baseline:
            for r in records:
                r.baseline = True
        reports.append(check_history(history, records, thresholds))
        if record or update_baseline:
            for r in records:
                history.append(r)
            written.append(history.save(directory=directory))
    return reports, written
