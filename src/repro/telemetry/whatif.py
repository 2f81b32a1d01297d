"""Deterministic what-if (causal) profiler over recorded bench runs.

Coz-style causal profiling asks "how much faster would the *whole run* be
if component X were N-times faster?" and answers it on real hardware by
sampling.  Our simulator is bit-for-bit deterministic, so we can answer
it *exactly*: replay the recorded graph with a
:class:`repro.sim.cluster.CostOverrides` probe (per-template virtual
speedups, network latency/bandwidth scaling, rank-count changes) and
measure the counterfactual makespan -- zero sampling noise, zero
tolerance.

Probes compose multiplicatively with the overrides the record was taken
under (``record.cost_overrides``), which makes injected regressions
invertible: a run recorded with a 2x slowdown on ``GEMM`` (speedup 0.5)
replayed under ``--speedup GEMM=2`` applies a net factor of exactly 1.0
and reproduces the unperturbed baseline makespan bit-for-bit.

Entry points:

- :func:`replay_record` -- one exact counterfactual replay of a stored
  :class:`~repro.bench.history.BenchRecord`.
- :func:`sensitivity` -- sweep the standard knob set and rank makespan
  sensitivity per knob.
- :func:`explain` -- root-cause a baseline->candidate regression: probe a
  speedup on each suspect template and report how much of the makespan
  delta each one recovers.  Wired into ``python -m repro.bench
  --check-regressions --explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.cluster import CostOverrides

def parse_factor(text: str) -> Tuple[str, float]:
    """Parse one ``TEMPLATE=FACTOR`` CLI knob (e.g. ``GEMM=2``)."""
    name, sep, factor = text.partition("=")
    if not sep or not name:
        raise ValueError(f"expected TEMPLATE=FACTOR, got {text!r}")
    value = float(factor)
    if not value > 0.0:
        raise ValueError(f"speedup factor must be > 0, got {text!r}")
    return name, value


def replay_record(
    record: Any,
    *,
    speedups: Optional[Dict[str, float]] = None,
    latency_scale: float = 1.0,
    bandwidth_scale: float = 1.0,
    nodes: Optional[int] = None,
    telemetry_out: Optional[List[Any]] = None,
) -> Any:
    """Exact counterfactual replay of one stored bench record.

    Rebuilds the record's (app, backend, seed, config) cell through
    :func:`repro.bench.history.measure` with the probe overrides
    *composed onto* the overrides the record was taken under.  ``nodes``
    replays at a different rank count (the rank-count knob).  Returns the
    replayed :class:`~repro.bench.history.BenchRecord`.  A speedup on a
    template the record never executed raises ``ValueError``.
    """
    from repro.bench.history import APPS, measure

    row = APPS.get(record.app)
    if row is None:
        raise ValueError(f"cannot replay unknown app {record.app!r}")
    unknown = sorted(set(speedups or ()) - set(record.tasks_by_template))
    if unknown:
        raise ValueError(
            f"speedup for template(s) {', '.join(unknown)} not in the "
            f"{record.app} record; known: "
            f"{', '.join(sorted(record.tasks_by_template))}")
    kwargs = row.params_of(record.config)
    if nodes is not None:
        kwargs["nodes"] = int(nodes)
    recorded = CostOverrides.from_dict(record.cost_overrides or {})
    probe = CostOverrides(
        speedups=dict(speedups or {}),
        latency_scale=latency_scale,
        bandwidth_scale=bandwidth_scale,
    )
    composed = recorded.compose(probe)
    return measure(
        record.app, record.seed, backend=record.backend,
        overrides=None if composed.is_null else composed,
        telemetry_out=telemetry_out,
        **kwargs,
    )


@dataclass
class Sensitivity:
    """Makespan sensitivity of one knob."""

    knob: str            # e.g. "speedup GEMM=2", "latency /2", "nodes 8"
    makespan: float      # counterfactual makespan under the knob
    baseline: float      # the record's own (replayed) makespan
    kind: str = "template"   # template | network | ranks

    @property
    def delta(self) -> float:
        return self.makespan - self.baseline

    @property
    def pct(self) -> float:
        if self.baseline == 0.0:
            return 0.0
        return 100.0 * self.delta / self.baseline


def sensitivity(
    record: Any,
    *,
    factor: float = 2.0,
    templates: Optional[Sequence[str]] = None,
    network: bool = True,
    node_counts: Sequence[int] = (),
) -> List[Sensitivity]:
    """Sweep the standard knob set over one record, exactly.

    Probes a ``factor`` speedup on each template (all templates the
    record executed unless ``templates`` narrows it), a ``factor``
    improvement on network latency and bandwidth, and each rank count in
    ``node_counts``.  The reference makespan is the record's own stored
    makespan (deterministic replay reproduces it bit-for-bit, so no
    re-measure is needed).  Rows are sorted by improvement, best first.
    """
    base = float(record.makespan)
    rows: List[Sensitivity] = []
    names = list(templates) if templates else sorted(record.tasks_by_template)
    for name in names:
        rep = replay_record(record, speedups={name: factor})
        rows.append(Sensitivity(
            f"speedup {name}={factor:g}", rep.makespan, base))
    if network:
        rep = replay_record(record, latency_scale=1.0 / factor)
        rows.append(Sensitivity(
            f"latency /{factor:g}", rep.makespan, base, kind="network"))
        rep = replay_record(record, bandwidth_scale=factor)
        rows.append(Sensitivity(
            f"bandwidth x{factor:g}", rep.makespan, base, kind="network"))
    for n in node_counts:
        rep = replay_record(record, nodes=n)
        rows.append(Sensitivity(
            f"nodes {n}", rep.makespan, base, kind="ranks"))
    rows.sort(key=lambda s: s.makespan)
    return rows


def format_sensitivity(rows: Sequence[Sensitivity]) -> str:
    lines = [f"{'knob':<28}{'makespan ms':>14}{'delta ms':>12}{'%':>8}"]
    for s in rows:
        lines.append(f"{s.knob:<28}{s.makespan * 1e3:>14.4f}"
                     f"{s.delta * 1e3:>+12.4f}{s.pct:>+8.2f}")
    return "\n".join(lines)


@dataclass
class Attribution:
    """How much of a regression one template accounts for."""

    template: str
    probe_factor: float      # the speedup probed on this template
    makespan: float          # candidate makespan under the probe
    recovered: float         # candidate_makespan - makespan
    share: float             # recovered / (candidate - baseline) delta
    exact_baseline: bool     # probe reproduced the baseline makespan exactly


@dataclass
class Explanation:
    """The root-cause block of one regressed (baseline, candidate) pair."""

    app: str
    config_key: str
    baseline_makespan: float
    candidate_makespan: float
    attributions: List[Attribution] = field(default_factory=list)

    @property
    def delta(self) -> float:
        return self.candidate_makespan - self.baseline_makespan

    def top(self) -> Optional[Attribution]:
        return self.attributions[0] if self.attributions else None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.telemetry/whatif-v1",
            "app": self.app,
            "config_key": self.config_key,
            "makespan": {"baseline": self.baseline_makespan,
                         "candidate": self.candidate_makespan,
                         "delta": self.delta},
            "attributions": [
                {"template": a.template, "probe_factor": a.probe_factor,
                 "makespan": a.makespan, "recovered": a.recovered,
                 "share": a.share, "exact_baseline": a.exact_baseline}
                for a in self.attributions
            ],
        }

    def format(self) -> str:
        lines = [
            f"root cause ({self.app}, {self.config_key}):",
            f"  makespan {self.baseline_makespan * 1e3:.4f} -> "
            f"{self.candidate_makespan * 1e3:.4f} ms "
            f"({self.delta * 1e3:+.4f} ms)",
        ]
        for a in self.attributions[:8]:
            exact = ", recovers the baseline EXACTLY" if a.exact_baseline else ""
            lines.append(
                f"  template {a.template}: a {a.probe_factor:g}x speedup "
                f"there recovers {a.share * 100:.1f}% of the delta "
                f"({a.recovered * 1e3:+.4f} ms{exact})")
        top = self.top()
        if top is not None and top.share > 0.0:
            lines.append(
                f"  => {top.template} accounts for {top.share * 100:.0f}% "
                f"of the regression")
        return "\n".join(lines)


def explain(
    baseline: Any,
    candidate: Any,
    *,
    factor: float = 2.0,
    max_templates: int = 8,
) -> Explanation:
    """Root-cause a regression by exact causal probing.

    For each template the candidate executed (largest task populations
    first, capped at ``max_templates``), replay the candidate with a
    ``factor`` virtual speedup on that template and measure how much of
    the baseline->candidate makespan delta the probe recovers.  Because
    probes compose exactly with recorded overrides, an injected ``1/f``
    slowdown probed at ``f`` recovers the baseline makespan bit-for-bit
    and is flagged ``exact_baseline``.

    Attributions are ranked by how close the probed makespan lands to
    the baseline, then by recovery: a probe on a large template that
    overshoots the delta says the template is big, not that it moved.
    """
    base_ms = float(baseline.makespan)
    cand_ms = float(candidate.makespan)
    delta = cand_ms - base_ms
    out = Explanation(candidate.app, candidate.config_key, base_ms, cand_ms)
    names = sorted(candidate.tasks_by_template,
                   key=lambda n: -candidate.tasks_by_template[n])
    for name in names[:max_templates]:
        rep = replay_record(candidate, speedups={name: factor})
        recovered = cand_ms - rep.makespan
        out.attributions.append(Attribution(
            template=name,
            probe_factor=factor,
            makespan=rep.makespan,
            recovered=recovered,
            share=recovered / delta if delta != 0.0 else 0.0,
            exact_baseline=rep.makespan == base_ms,
        ))
    out.attributions.sort(
        key=lambda a: (abs(a.makespan - base_ms), -a.recovered))
    return out
