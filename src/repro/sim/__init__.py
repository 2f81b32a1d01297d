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

Observing a run is :mod:`repro.telemetry`'s job: attach a
:class:`~repro.telemetry.events.Telemetry` to the backend.
"""

from repro.sim.engine import ENGINE_KINDS, Engine
from repro.sim.network import NetworkModel, NetworkSpec
from repro.sim.node import NodeSpec
from repro.sim.cluster import Cluster, MachineSpec, HAWK, SEAWULF, machine_by_name

__all__ = [
    "Engine",
    "ENGINE_KINDS",
    "NetworkModel",
    "NetworkSpec",
    "NodeSpec",
    "Cluster",
    "MachineSpec",
    "HAWK",
    "SEAWULF",
    "machine_by_name",
]
