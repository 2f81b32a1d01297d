"""Durable runs: a write-only checkpoint trail + fault injection.

- :mod:`repro.durability.checkpoint` -- the versioned checkpoint format
  (``repro.durability/checkpoint`` v4: spec, cursor and an attested
  logical core, no runtime bytes), atomic write path, chain loader and
  the write-only :class:`Checkpointer` engine hook.
- :mod:`repro.durability.chaos` -- deterministic fault injection
  (:class:`FaultPlan`) for the resilience test suite.

A killed run is not resumed: the simulator is deterministic, so running
the cell again is the recovery, and it lands on the same bits.  The
checkpoint trail attests how far a run got and that it followed the same
trajectory; read it from Python with :func:`read_checkpoint` and
:func:`load_chain`.  See ``docs/durability.md``.
"""

from repro.durability.chaos import FaultPlan, InjectedFault, inject
from repro.durability.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    DEFAULT_EVERY,
    ChainReport,
    Checkpoint,
    CheckpointError,
    Checkpointer,
    checkpoint_path,
    list_runs,
    load_chain,
    read_checkpoint,
    read_run_manifest,
    run_id_for,
    state_digest,
    write_checkpoint,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "DEFAULT_EVERY",
    "ChainReport",
    "Checkpoint",
    "CheckpointError",
    "Checkpointer",
    "FaultPlan",
    "InjectedFault",
    "checkpoint_path",
    "inject",
    "list_runs",
    "load_chain",
    "read_checkpoint",
    "read_run_manifest",
    "run_id_for",
    "state_digest",
    "write_checkpoint",
]
