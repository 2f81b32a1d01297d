"""Template tasks: the nodes of a TTG.

``make_tt`` composes a template task from a function (paper Listing 1,
lines 9/41).  The task body receives the task ID, the input data in terminal
order, and the tuple of output terminals (here: a :class:`TaskOutputs`
object); during execution it may deliver new messages to zero or more output
terminals, making the control flow data-dependent.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.core.edge import Edge
from repro.core.exceptions import GraphConstructionError
from repro.core.terminals import InputTerminal, OutputTerminal

_tt_ids = itertools.count()

#: cost function signature: (key, *args) -> flops or (flops, bytes_moved)
CostFn = Callable[..., Union[float, Tuple[float, float]]]


class TemplateTask:
    """A template task: body + typed input/output terminals.

    Use :func:`make_tt` rather than constructing directly.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        input_edges: Sequence[Edge],
        output_edges: Sequence[Edge],
        name: str = "",
        keymap: Optional[Callable[[Any], int]] = None,
        priomap: Optional[Callable[[Any], int]] = None,
        cost: Optional[CostFn] = None,
        input_names: Optional[Sequence[str]] = None,
        output_names: Optional[Sequence[str]] = None,
    ) -> None:
        self.id = next(_tt_ids)
        self.fn = fn
        self.name = name or getattr(fn, "__name__", f"tt{self.id}")
        self.inputs = [
            InputTerminal(self, i, e, (input_names or [])[i] if input_names else "")
            for i, e in enumerate(input_edges)
        ]
        self.outputs = [
            OutputTerminal(self, i, e, (output_names or [])[i] if output_names else "")
            for i, e in enumerate(output_edges)
        ]
        self.num_inputs = len(self.inputs)
        self.num_outputs = len(self.outputs)
        # Matching facts the executable reads once per delivered message
        # (repro.core.graph._deliver): plain attributes, kept current by
        # InputTerminal.set_reducer -- the one call that can change them.
        #: whether any input terminal streams (if none does, readiness of an
        #: instance is a count of filled inputs, not a scan)
        self.streams = False
        #: messages a fresh instance expects per input (None: a stream sized
        #: per key by set_argstream_size / finalize)
        self.expected_row: List[Optional[int]] = [1] * self.num_inputs
        self._keymap = keymap
        self._priomap = priomap
        self._cost = cost
        self._devicemap: Optional[Callable[[Any], str]] = None
        self._lint_waivers: frozenset = frozenset()
        self._lint_waiver_expiry: dict = {}

    # ------------------------------------------------------------- plumbing

    def input_became_streaming(self, term: InputTerminal) -> None:
        """``term`` (one of :attr:`inputs`) was given a reducer."""
        self.streams = True
        # A fresh list: instances already pending keep the row they started
        # with (single-message templates share theirs, see _Pending).
        row = list(self.expected_row)
        row[term.index] = term.static_stream_size
        self.expected_row = row

    def in_terminal(self, which: Union[int, str]) -> InputTerminal:
        """Look up an input terminal by index or name."""
        if isinstance(which, int):
            return self.inputs[which]
        for t in self.inputs:
            if t.name == which:
                return t
        raise GraphConstructionError(f"{self.name} has no input terminal {which!r}")

    # --------------------------------------------------------------- config

    def set_keymap(self, keymap: Callable[[Any], int]) -> "TemplateTask":
        self._keymap = keymap
        return self

    def set_priomap(self, priomap: Callable[[Any], int]) -> "TemplateTask":
        """Per-template priority map: task ID -> priority (paper feature)."""
        self._priomap = priomap
        return self

    def set_cost(self, cost: CostFn) -> "TemplateTask":
        """Cost model hook: flops (and optionally bytes) per task instance."""
        self._cost = cost
        return self

    def set_devicemap(self, devicemap: Union[str, Callable[[Any], str]]) -> "TemplateTask":
        """Execution-space map: task ID -> 'cpu' | 'gpu' (heterogeneous
        platforms, the paper's future-work item).  A plain string pins the
        whole template to that device."""
        if isinstance(devicemap, str):
            self._devicemap = lambda key: devicemap
        else:
            self._devicemap = devicemap
        return self

    def lint_waive(self, *rule_ids: str,
                   expires: Optional[str] = None) -> "TemplateTask":
        """Suppress specific :mod:`repro.analysis` lint rules on this
        template -- the explicit, reviewable acknowledgment that a pattern
        the linter flags (e.g. a dynamically-sized streaming feedback
        loop, rule TTG005) is intended.

        ``expires`` ("YYYY-MM-DD") bounds the acknowledgment in time:
        past the date the waiver stops being honored and the findings
        fire hard again, so temporary shard-safety debts (SHD/RACE
        waivers) cannot rot silently.  Expired waivers are surfaced by the
        CLI summary.
        """
        import datetime

        if expires is not None:
            datetime.date.fromisoformat(expires)  # validate eagerly
            for rid in rule_ids:
                self._lint_waiver_expiry[rid] = expires
        self._lint_waivers = self._lint_waivers | frozenset(rule_ids)
        return self

    def waiver_active(self, rule_id: str, today: Optional[str] = None) -> bool:
        """Whether a :meth:`lint_waive` acknowledgment currently applies
        (declared, and not past its ``expires`` date).  ISO dates compare
        lexicographically, so string comparison is exact."""
        if rule_id not in self._lint_waivers:
            return False
        expiry = self._lint_waiver_expiry.get(rule_id)
        if expiry is None:
            return True
        if today is None:
            import datetime

            today = datetime.date.today().isoformat()
        return today <= expiry

    def expired_waivers(self, today: Optional[str] = None) -> Tuple[str, ...]:
        """Rule ids waived on this template whose waiver has expired."""
        if not self._lint_waiver_expiry:
            return ()
        if today is None:
            import datetime

            today = datetime.date.today().isoformat()
        return tuple(
            sorted(
                rid
                for rid, expiry in self._lint_waiver_expiry.items()
                if rid in self._lint_waivers and today > expiry
            )
        )

    def set_input_reducer(
        self,
        which: Union[int, str],
        reducer: Callable[[Any, Any], Any],
        size: Optional[int] = None,
    ) -> "TemplateTask":
        """Turn input terminal ``which`` into a streaming terminal
        (paper Listing 3: ``set_input_reducer`` with an expected size)."""
        self.in_terminal(which).set_reducer(reducer, size)
        return self

    # -------------------------------------------------------------- queries

    def keymap(self, key: Any, nranks: int) -> int:
        """Owner rank of the task with this ID."""
        if self._keymap is None:
            import zlib

            return zlib.crc32(repr(key).encode()) % nranks
        rank = self._keymap(key)
        if not (0 <= rank < nranks):
            raise GraphConstructionError(
                f"{self.name} keymap({key!r}) = {rank} out of range [0, {nranks})",
                rule="TTG006",
            )
        return rank

    def priority(self, key: Any) -> int:
        return 0 if self._priomap is None else self._priomap(key)

    def device(self, key: Any) -> str:
        return "cpu" if self._devicemap is None else self._devicemap(key)

    def cost(self, key: Any, args: Sequence[Any]) -> Tuple[float, float]:
        """(flops, bytes_moved) for the instance with this key/args."""
        if self._cost is None:
            return 0.0, 0.0
        out = self._cost(key, *args)
        if isinstance(out, tuple):
            return float(out[0]), float(out[1])
        return float(out), 0.0

    def __repr__(self) -> str:
        return (
            f"TemplateTask({self.name!r}, in={[t.edge.name for t in self.inputs]}, "
            f"out={[t.edge.name for t in self.outputs]})"
        )


def make_tt(
    fn: Callable[..., Any],
    input_edges: Sequence[Edge] = (),
    output_edges: Sequence[Edge] = (),
    name: str = "",
    keymap: Optional[Callable[[Any], int]] = None,
    priomap: Optional[Callable[[Any], int]] = None,
    cost: Optional[CostFn] = None,
    input_names: Optional[Sequence[str]] = None,
    output_names: Optional[Sequence[str]] = None,
) -> TemplateTask:
    """Compose a template task from a free or lambda function.

    The body is invoked as ``fn(key, *inputs, outs)`` where ``inputs``
    follow input-terminal order and ``outs`` is the
    :class:`~repro.core.messaging.TaskOutputs` handle used for
    ``send``/``broadcast``.
    """
    if not callable(fn):
        raise GraphConstructionError("task body must be callable")
    return TemplateTask(
        fn,
        tuple(input_edges),
        tuple(output_edges),
        name=name,
        keymap=keymap,
        priomap=priomap,
        cost=cost,
        input_names=input_names,
        output_names=output_names,
    )
