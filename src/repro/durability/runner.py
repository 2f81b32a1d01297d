"""Resume a killed benchmark run from its checkpoint directory.

:func:`resume_run` is the programmatic core behind both
``python -m repro.durability resume`` and ``python -m repro.bench
--resume``: it reopens the durable run (``run.json`` + the intact
checkpoint chain), rebuilds the benchmark cell from the stored spec, and
continues it with the :class:`~repro.durability.checkpoint.Checkpointer`.

When the newest checkpoint carries physical heap bytes (format v2) the
prefix replay is skipped entirely -- the serialized event heaps and
runtime state are restored at the stored execute phase and the run
continues from the exact cadence point (still self-verifying: the
restored state must hash to the stored attestation digest).
``verify=True`` (CLI ``--verify``) forces the slower full-replay path,
re-deriving and comparing every stored checkpoint's state digest during
the replay.  Either way, because the simulator is deterministic, the
resumed run's final stats, traces and bench record are bit-for-bit
identical to an uninterrupted run (the engine-parity suite asserts this
for all four applications on both engines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.durability.checkpoint import Checkpointer, ResumeConfigError
from repro.sim.sharded import ENGINE_KINDS


@dataclass
class ResumeResult:
    """What one :func:`resume_run` produced."""

    run_id: str
    record: Any                      # the finished BenchRecord
    resume_point: str = ""
    verified: int = 0                # stored checkpoints re-attested
    written: int = 0                 # fresh checkpoints past the chain
    restored: bool = False           # physical (replay-skipping) restore
    restored_events: int = 0         # events skipped by that restore
    problems: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "run": self.run_id, "resume_point": self.resume_point,
            "verified": self.verified, "written": self.written,
            "restored": self.restored,
            "restored_events": self.restored_events,
            "problems": list(self.problems),
            "record": self.record.as_dict(),
        }


def resume_run(
    checkpoint_dir: str,
    run_id: str,
    *,
    spec: Optional[Dict[str, Any]] = None,
    ledger_dir: Optional[str] = None,
    live: bool = False,
    verify: bool = False,
) -> ResumeResult:
    """Rebuild and resume the durable run ``run_id``.

    ``spec``, when given, must equal the stored spec
    (:class:`~repro.durability.checkpoint.ResumeConfigError` otherwise) --
    a resume must never silently run a different experiment than the one
    that was killed.  Corrupt or torn checkpoints in the chain are
    skipped (reported in ``problems``).  ``verify=True`` forces
    verify-replay even when a physical checkpoint is available.
    ``ledger_dir``/``live`` arm the run ledger on the resumed run
    (observability is not part of the stored spec, so it may differ from
    the killed run); the ledger header is stamped with the resume point.
    A stored spec naming an engine kind this version does not have raises
    :class:`~repro.durability.checkpoint.ResumeConfigError`.
    """
    from repro.bench.history import measure_cell

    ckpt = Checkpointer(checkpoint_dir, run_id, spec=spec, resume=True,
                        verify=verify)
    kind = ckpt.spec.get("engine", "seq")
    if kind not in ENGINE_KINDS:
        raise ResumeConfigError(
            f"cannot resume {run_id!r}: its stored spec names engine "
            f"{kind!r}, which this version does not have (known: "
            f"{', '.join(ENGINE_KINDS)}); results are engine-independent, "
            f"so re-run the cell on 'sharded' instead"
        )
    cell = dict(ckpt.spec, checkpointer=ckpt)
    if ledger_dir is not None:
        cell["ledger_dir"] = ledger_dir
    if live:
        cell["live"] = True
    record = measure_cell(cell)
    return ResumeResult(
        run_id=run_id, record=record, resume_point=ckpt.resume_point,
        verified=ckpt.verified, written=ckpt.written,
        restored=ckpt.restored, restored_events=ckpt.restored_events,
        problems=list(ckpt.problems),
    )
