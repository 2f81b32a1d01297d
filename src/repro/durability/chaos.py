"""Fault-injection harness: deterministic crashes for resilience testing.

A :class:`FaultPlan` names *where* a fault fires (the Nth checkpoint
cadence point, life-cycle phase transition, or benchmark matrix cell)
and *what* happens there: an in-process :class:`InjectedFault` (the
sandbox-safe default -- it unwinds exactly like a crash from the event
loop's point of view, and
:meth:`repro.sim.engine.Engine.run` requeues the unexecuted tail), a real
``SIGKILL`` of the current process, or a
``SIGSTOP`` suspension.

Usage::

    with chaos.inject(FaultPlan(kind="exception", site="checkpoint", nth=2)):
        measure_cell({...})   # raises InjectedFault at the 2nd checkpoint

Instrumented call sites ``poke(site, **context)`` as they pass; with no
active plan a poke is one module-global read.  Sites are wired through the
durability checkpointer (``checkpoint``, ``phase``), plus the top of
:func:`repro.bench.history.measure_cell` (``cell``) so a forked pool
worker can be killed mid-cell.  The plan rides into ``fork`` workers via
the inherited module global; ``latch`` (a path created atomically on
first firing) makes a plan fire once *across* processes and retries.
"""

from __future__ import annotations

import os
import signal
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Sites a plan may target.
FAULT_SITES = ("checkpoint", "phase", "cell")

#: What happens when the plan fires.
FAULT_KINDS = ("exception", "kill", "suspend")


class InjectedFault(BaseException):
    """An injected crash.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``): no
    runtime layer may swallow it, so it models a process death as closely
    as an in-process exception can.
    """


@dataclass
class FaultPlan:
    """Where and how to fail.

    Attributes
    ----------
    kind:
        ``exception`` raises :class:`InjectedFault` (default),
        ``kill`` delivers ``SIGKILL`` to the current process,
        ``suspend`` delivers ``SIGSTOP``.
    site:
        Which instrumented site triggers: ``checkpoint`` | ``phase`` |
        ``cell``.
    nth:
        Fire on the Nth matching poke (1-based).
    phase:
        For ``site="phase"``: only this life-cycle phase matches
        (``build`` / ``fence`` / ``execute`` / ``drain``); ``None``
        matches any phase.
    match:
        Context filter: every key must equal the poke's context value
        (e.g. ``{"app": "mra", "seed": 1}`` on the ``cell`` site).
    latch:
        Optional path; the plan fires only if it can *create* this file
        (``O_EXCL``), i.e. exactly once across processes and retries.
    """

    kind: str = "exception"
    site: str = "checkpoint"
    nth: int = 1
    phase: Optional[str] = None
    match: Dict[str, Any] = field(default_factory=dict)
    latch: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {FAULT_KINDS}")
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"known: {FAULT_SITES}")
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")


class _Injection:
    """One armed plan plus its per-process occurrence counters."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counts: Counter = Counter()
        self.fired = False

    def poke(self, site: str, **context: Any) -> None:
        plan = self.plan
        if site != plan.site or self.fired:
            return
        if plan.phase is not None and context.get("phase") != plan.phase:
            return
        if any(context.get(k) != v for k, v in plan.match.items()):
            return
        self.counts[site] += 1
        if self.counts[site] < plan.nth:
            return
        if plan.latch is not None:
            try:
                fd = os.open(plan.latch, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return  # already fired (possibly in another process)
            os.close(fd)
        self.fired = True
        self._fire(site, context)

    def _fire(self, site: str, context: Dict[str, Any]) -> None:
        plan = self.plan
        if plan.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if plan.kind == "suspend":
            os.kill(os.getpid(), signal.SIGSTOP)
            return  # resumes here after SIGCONT
        raise InjectedFault(
            f"injected fault at {site} #{plan.nth}"
            + (f" (phase={context.get('phase')})" if site == "phase" else "")
        )


#: The armed plan of this process (inherited by ``fork`` pool workers).
_ACTIVE: Optional[_Injection] = None


def active() -> Optional[FaultPlan]:
    """The currently armed plan, or ``None``."""
    return _ACTIVE.plan if _ACTIVE is not None else None


def poke(site: str, **context: Any) -> None:
    """Report that an instrumented site was passed; may not return."""
    if _ACTIVE is not None:
        _ACTIVE.poke(site, **context)


class inject:
    """Context manager arming one :class:`FaultPlan` for the block."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._prev: Optional[_Injection] = None

    def __enter__(self) -> "inject":
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = _Injection(self.plan)
        return self

    def __exit__(self, *exc: Any) -> None:
        global _ACTIVE
        _ACTIVE = self._prev
