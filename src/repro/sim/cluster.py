"""Machine presets and the Cluster object binding nodes + network + engine.

The presets mirror Table I / Section III-A of the paper:

- **Hawk** (HLRS): dual-socket 64-core AMD EPYC 7742 (we model the single
  NUMA domain the paper pins to: 60 worker threads), Mellanox InfiniBand
  HDR-200 (~25 GB/s per port, ~1.1 us latency).
- **Seawulf** (Stony Brook): dual-socket Intel Xeon Gold 6148 (40 cores,
  38 workers after reserving cores), InfiniBand FDR (~6.8 GB/s, ~1.3 us).

Absolute flop rates are calibration constants, documented here and surfaced
by the Table I benchmark; only curve shapes are claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Union

from repro.sim.engine import Engine
from repro.sim.network import NetworkModel, NetworkSpec
from repro.sim.node import NodeSpec


@dataclass(frozen=True)
class CostOverrides:
    """Deterministic cost perturbations for what-if (causal) profiling.

    The simulator's virtual-time replay is bit-for-bit deterministic, so
    scaling a template's task durations by an exact factor produces the
    *exact* counterfactual run -- Coz-style causal profiling without the
    sampling noise.  ``speedups`` maps template names to speedup factors
    (``2.0`` halves every task of that template; ``0.5`` doubles it, i.e.
    injects a 2x slowdown).  ``latency_scale`` / ``bandwidth_scale``
    multiply the network spec before the cluster binds its topology, so
    the conservative-window lookahead stays consistent with the scaled
    latency.

    Overrides compose multiplicatively: replaying a run recorded with a
    ``0.5`` slowdown under a ``2.0`` probe speedup applies a net factor
    of exactly ``1.0`` and reproduces the unperturbed makespan.
    """

    speedups: Mapping[str, float] = field(default_factory=dict)
    latency_scale: float = 1.0
    bandwidth_scale: float = 1.0

    def __post_init__(self) -> None:
        for name, factor in self.speedups.items():
            if not factor > 0.0:
                raise ValueError(f"speedup for {name!r} must be > 0, got {factor}")
        if not self.latency_scale > 0.0:
            raise ValueError("latency_scale must be > 0")
        if not self.bandwidth_scale > 0.0:
            raise ValueError("bandwidth_scale must be > 0")

    @property
    def is_null(self) -> bool:
        """True when applying these overrides changes nothing."""
        return (
            self.latency_scale == 1.0
            and self.bandwidth_scale == 1.0
            and all(v == 1.0 for v in self.speedups.values())
        )

    def compose(self, other: "CostOverrides") -> "CostOverrides":
        """Multiplicative composition (this run's factors x ``other``'s)."""
        speedups = dict(self.speedups)
        for name, factor in other.speedups.items():
            speedups[name] = speedups.get(name, 1.0) * factor
        return CostOverrides(
            speedups=speedups,
            latency_scale=self.latency_scale * other.latency_scale,
            bandwidth_scale=self.bandwidth_scale * other.bandwidth_scale,
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (omits neutral fields for compact records)."""
        out: Dict[str, Any] = {}
        speedups = {k: v for k, v in self.speedups.items() if v != 1.0}
        if speedups:
            out["speedups"] = dict(sorted(speedups.items()))
        if self.latency_scale != 1.0:
            out["latency_scale"] = self.latency_scale
        if self.bandwidth_scale != 1.0:
            out["bandwidth_scale"] = self.bandwidth_scale
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CostOverrides":
        return cls(
            speedups={str(k): float(v) for k, v in dict(data.get("speedups") or {}).items()},
            latency_scale=float(data.get("latency_scale", 1.0)),
            bandwidth_scale=float(data.get("bandwidth_scale", 1.0)),
        )

    @classmethod
    def coerce(
        cls, value: Union["CostOverrides", Mapping[str, Any], None]
    ) -> Optional["CostOverrides"]:
        """Accept an instance, a plain dict (picklable checkpoint-spec /
        fork-pool form), or None; normalize null overrides to None."""
        if value is None:
            return None
        ov = value if isinstance(value, CostOverrides) else cls.from_dict(value)
        return None if ov.is_null else ov


@dataclass(frozen=True)
class MachineSpec:
    """A named (node, network) pair representing one cluster."""

    name: str
    node: NodeSpec
    network: NetworkSpec
    description: str = ""

    def with_workers(self, workers: int) -> "MachineSpec":
        """Preset variant with a different worker count per node."""
        return replace(self, node=replace(self.node, workers=workers))


# EPYC 7742 @2.25 GHz, 16 DP flop/cycle AVX2 => ~36 Gflop/s per core peak;
# we model ~70% sustained for tuned BLAS-3 kernels.
HAWK = MachineSpec(
    name="hawk",
    node=NodeSpec(
        workers=60,
        flops_per_worker=25.0e9,
        mem_bandwidth=300.0e9,
        task_overhead=2.0e-6,
        copy_bandwidth=8.0e9,
    ),
    network=NetworkSpec(
        latency=1.1e-6,
        bandwidth=24.0e9,
        eager_threshold=8192,
        am_overhead=0.5e-6,
        bisection_per_node=12.0e9,
    ),
    description="HPE Apollo, AMD EPYC 7742, IB HDR-200 (HLRS Stuttgart)",
)

# Xeon Gold 6148 @2.4 GHz AVX-512: ~50 Gflop/s sustained per core is
# optimistic under throttling; we model ~28.
SEAWULF = MachineSpec(
    name="seawulf",
    node=NodeSpec(
        workers=38,
        flops_per_worker=28.0e9,
        mem_bandwidth=200.0e9,
        task_overhead=2.5e-6,
        copy_bandwidth=6.0e9,
    ),
    network=NetworkSpec(
        latency=1.3e-6,
        bandwidth=6.8e9,
        eager_threshold=8192,
        am_overhead=0.7e-6,
        bisection_per_node=3.4e9,
    ),
    description="Intel Xeon Gold 6148, IB FDR (Stony Brook)",
)

_MACHINES: Dict[str, MachineSpec] = {"hawk": HAWK, "seawulf": SEAWULF}


def machine_by_name(name: str) -> MachineSpec:
    """Look up a machine preset; raises KeyError with the known names."""
    try:
        return _MACHINES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown machine {name!r}; known: {sorted(_MACHINES)}") from None


@dataclass
class Cluster:
    """A concrete virtual machine: N nodes of one MachineSpec plus an engine.

    One simulated process (rank) runs per node, matching the paper's
    process-per-node + worker-threads configuration.
    """

    machine: MachineSpec
    nnodes: int
    engine: Engine = field(default_factory=Engine)
    overrides: Optional[CostOverrides] = None

    def __post_init__(self) -> None:
        if self.nnodes < 1:
            raise ValueError("nnodes must be >= 1")
        self.overrides = CostOverrides.coerce(self.overrides)
        ov = self.overrides
        if ov is not None and (ov.latency_scale != 1.0 or ov.bandwidth_scale != 1.0):
            # Scale the network spec *before* binding the topology: the
            # conservative-window lookahead is the (scaled) latency.  The
            # neutral path leaves the spec untouched so unperturbed runs
            # stay bit-for-bit identical to pre-override builds.
            net = self.machine.network
            net = replace(
                net,
                latency=net.latency * ov.latency_scale,
                bandwidth=net.bandwidth * ov.bandwidth_scale,
                bisection_per_node=(
                    None if net.bisection_per_node is None
                    else net.bisection_per_node * ov.bandwidth_scale
                ),
            )
            self.machine = replace(self.machine, network=net)
        # Shard-capable engines bind their topology here: one shard per
        # rank and the conservative lookahead floor from the network's
        # minimum latency (see repro.sim.sharded).
        bind = getattr(self.engine, "bind_topology", None)
        if bind is not None:
            bind(self.nnodes, self.machine.network.lookahead)
        self.network = NetworkModel(self.machine.network, self.nnodes, self.engine)

    @classmethod
    def with_engine(cls, machine: MachineSpec, nnodes: int,
                    engine: str = "seq",
                    overrides: Optional[CostOverrides] = None) -> "Cluster":
        """Build a cluster on a named engine kind (``seq``/``sharded``,
        see :func:`repro.sim.sharded.create_engine`)."""
        from repro.sim.sharded import create_engine

        return cls(machine, nnodes, engine=create_engine(engine, nranks=nnodes),
                   overrides=overrides)

    @property
    def node(self) -> NodeSpec:
        return self.machine.node

    @property
    def nranks(self) -> int:
        return self.nnodes

    @property
    def total_workers(self) -> int:
        return self.nnodes * self.machine.node.workers

    @property
    def peak_gflops(self) -> float:
        """Aggregate peak of the virtual machine in Gflop/s."""
        return self.total_workers * self.machine.node.flops_per_worker / 1.0e9
