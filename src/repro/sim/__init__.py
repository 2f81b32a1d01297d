"""Deterministic discrete-event simulation of a distributed-memory cluster.

This package is the hardware substrate for the whole reproduction.  The paper
evaluates TTG on real clusters (Hawk, Seawulf); we cannot, so every runtime,
application and baseline in this repository executes on the virtual machines
defined here.  Virtual time is driven by per-task flop counts and per-message
byte counts; the Python-level execution order is fully deterministic so that
every experiment is exactly reproducible.

Public entry points:

- :class:`~repro.sim.engine.Engine` -- the event loop and virtual clock.
- :class:`~repro.sim.network.NetworkModel` -- latency/bandwidth/NIC model.
- :class:`~repro.sim.cluster.Cluster` and the machine presets
  :data:`~repro.sim.cluster.HAWK` / :data:`~repro.sim.cluster.SEAWULF`.
- :class:`~repro.sim.trace.Tracer` -- optional execution tracing.
"""

from repro.sim.engine import Engine, Event
from repro.sim.sharded import ENGINE_KINDS, ShardedEngine, create_engine
from repro.sim.network import NetworkModel, NetworkSpec
from repro.sim.node import NodeSpec
from repro.sim.cluster import Cluster, MachineSpec, HAWK, SEAWULF, machine_by_name
from repro.sim.trace import Tracer, TaskRecord, MessageRecord
from repro.sim.profile import Profile, TemplateStats, RankStats

__all__ = [
    "Engine",
    "Event",
    "ShardedEngine",
    "create_engine",
    "ENGINE_KINDS",
    "NetworkModel",
    "NetworkSpec",
    "NodeSpec",
    "Cluster",
    "MachineSpec",
    "HAWK",
    "SEAWULF",
    "machine_by_name",
    "Tracer",
    "TaskRecord",
    "MessageRecord",
    "Profile",
    "TemplateStats",
    "RankStats",
]
