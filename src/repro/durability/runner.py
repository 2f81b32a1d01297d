"""Resume a killed benchmark run from its checkpoint directory.

:func:`resume_run` is the programmatic core behind both
``python -m repro.durability resume`` and ``python -m repro.bench
--resume``: it reopens the durable run (``run.json`` + the intact
checkpoint chain), rebuilds the benchmark cell from the stored spec, and
continues it with the :class:`~repro.durability.checkpoint.Checkpointer`.

The cell replays from the start, re-deriving and comparing every stored
checkpoint's state digest on the way; past the chain it writes fresh
checkpoints.  Because the simulator is deterministic, the resumed run's
final stats, traces and bench record are bit-for-bit identical to an
uninterrupted run (the resume-parity suite asserts this for all four
applications).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.durability.checkpoint import Checkpointer, ResumeConfigError
from repro.sim.engine import ENGINE_KINDS


@dataclass
class ResumeResult:
    """What one :func:`resume_run` produced."""

    run_id: str
    record: Any                      # the finished BenchRecord
    resume_point: str = ""
    verified: int = 0                # stored checkpoints re-attested
    written: int = 0                 # fresh checkpoints past the chain
    problems: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "run": self.run_id, "resume_point": self.resume_point,
            "verified": self.verified, "written": self.written,
            "problems": list(self.problems),
            "record": self.record.as_dict(),
        }


def resume_run(
    checkpoint_dir: str,
    run_id: str,
    *,
    spec: Optional[Dict[str, Any]] = None,
    ledger_dir: Optional[str] = None,
) -> ResumeResult:
    """Rebuild and resume the durable run ``run_id``.

    ``spec``, when given, must equal the stored spec
    (:class:`~repro.durability.checkpoint.ResumeConfigError` otherwise) --
    a resume must never silently run a different experiment than the one
    that was killed.  Corrupt, torn or other-version checkpoint files are
    skipped and reported in ``problems``; the replay verifies the intact
    chain before them (none at all for a chain of older files) and
    rewrites the rest.
    ``ledger_dir`` arms the run ledger on the resumed run
    (observability is not part of the stored spec, so it may differ from
    the killed run); the ledger header is stamped with the resume point.

    A stored spec naming the deleted ``"sharded"`` engine resumes on the
    one engine, with a one-line note on stderr: its checkpoints attest
    that engine's internal state, so they are discarded and the cell
    replays from the start into the same run directory -- to the same
    bits, since the kinds never differed in results.  Any other engine
    kind this version does not have raises
    :class:`~repro.durability.checkpoint.ResumeConfigError`.
    """
    from repro.bench.history import measure_cell

    ckpt = Checkpointer(checkpoint_dir, run_id, spec=spec, resume=True)
    kind = ckpt.spec.get("engine", "seq")
    if kind == "sharded":
        # The deleted kind replayed the one loop's exact event order (the
        # parity suite compared them bit for bit), so its runs resume here.
        print(f"note: {run_id!r} was recorded on the removed {kind!r} "
              f"engine; replaying it from the start on the one engine "
              f"(identical results)", file=sys.stderr)
        ckpt = Checkpointer(checkpoint_dir, run_id,
                            spec=dict(ckpt.spec, engine="seq"),
                            every=ckpt.every)
    elif kind not in ENGINE_KINDS:
        raise ResumeConfigError(
            f"cannot resume {run_id!r}: its stored spec names engine "
            f"{kind!r}, which this version does not have (known: "
            f"{', '.join(ENGINE_KINDS)}); results are engine-independent, "
            f"so re-run the cell instead"
        )
    cell = dict(ckpt.spec, checkpointer=ckpt)
    if ledger_dir is not None:
        cell["ledger_dir"] = ledger_dir
    record = measure_cell(cell)
    return ResumeResult(
        run_id=run_id, record=record, resume_point=ckpt.resume_point,
        verified=ckpt.verified, written=ckpt.written,
        problems=list(ckpt.problems),
    )
