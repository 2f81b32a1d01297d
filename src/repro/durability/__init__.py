"""Durable runs: crash-consistent checkpoint/resume + fault injection.

- :mod:`repro.durability.checkpoint` -- the versioned checkpoint format
  (``repro.durability/checkpoint`` v4: spec, cursor and an attested
  logical core, no runtime bytes), atomic write path, chain loader and
  the :class:`Checkpointer` engine hook.
- :mod:`repro.durability.runner` -- :func:`resume_run`, rebuilding a
  killed benchmark run from its checkpoint directory and replaying it
  against the stored chain (the only resume path).
- :mod:`repro.durability.chaos` -- deterministic fault injection
  (:class:`FaultPlan`) for the resilience test suite and the CI
  kill-and-resume smoke job.
- CLI: ``python -m repro.durability {inspect,validate,resume,run,parity}``.

See ``docs/durability.md`` for the format and the deterministic-replay
resume semantics.
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
    ResumeConfigError,
    ResumeMismatchError,
    checkpoint_path,
    list_runs,
    load_chain,
    read_checkpoint,
    read_run_manifest,
    run_id_for,
    state_digest,
    write_checkpoint,
)
from repro.durability.runner import ResumeResult, resume_run

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
    "ResumeConfigError",
    "ResumeMismatchError",
    "ResumeResult",
    "checkpoint_path",
    "inject",
    "list_runs",
    "load_chain",
    "read_checkpoint",
    "read_run_manifest",
    "resume_run",
    "run_id_for",
    "state_digest",
    "write_checkpoint",
]
