"""Template tasks: the nodes of a TTG.

``make_tt`` composes a template task from a function (paper Listing 1,
lines 9/41).  The task body receives the task ID, the input data in terminal
order, and the tuple of output terminals (here: a :class:`TaskOutputs`
object); during execution it may deliver new messages to zero or more output
terminals, making the control flow data-dependent.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Any, Callable, Optional, Sequence, Tuple, Union

from repro.core.edge import Edge
from repro.core.exceptions import GraphConstructionError
from repro.core.terminals import InputTerminal, OutputTerminal

_tt_ids = itertools.count()

#: cost function signature: (key, *args) -> flops or (flops, bytes_moved)
CostFn = Callable[..., Union[float, Tuple[float, float]]]


def default_owner(key: Any, nranks: int) -> int:
    """Owner rank of a task whose template sets no keymap."""
    return zlib.crc32(repr(key).encode()) % nranks


def keymap_out_of_range(tt: "TemplateTask", key: Any, rank: Any,
                        nranks: int) -> GraphConstructionError:
    """The TTG006 error for a keymap that placed ``key`` outside
    ``[0, nranks)``.  The message paths call ``tt._keymap`` themselves and
    range-check inline; they raise this."""
    return GraphConstructionError(
        f"{tt.name} keymap({key!r}) = {rank} out of range [0, {nranks})",
        rule="TTG006",
    )


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
        self._keymap = keymap
        self._priomap = priomap
        self._cost = cost
        self._lint_waivers: frozenset = frozenset()
        #: executables holding this template's compiled delivery
        self._bindings: set = set()

    # ------------------------------------------------------------- plumbing

    def _changed(self) -> None:
        """A map or reducer changed: every executable that compiled this
        template's delivery drops it, to compile afresh at its next entry
        point (a running one refuses the change)."""
        for ex in list(self._bindings):
            ex._template_changed(self)

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
        self._changed()
        self._keymap = keymap
        return self

    def set_priomap(self, priomap: Callable[[Any], int]) -> "TemplateTask":
        """Per-template priority map: task ID -> priority (paper feature)."""
        self._changed()
        self._priomap = priomap
        return self

    def set_cost(self, cost: CostFn) -> "TemplateTask":
        """Cost model hook: flops (and optionally bytes) per task instance."""
        self._changed()
        self._cost = cost
        return self

    def lint_waive(self, *rule_ids: str) -> "TemplateTask":
        """Suppress specific :mod:`repro.analysis` lint rules on this
        template -- the explicit, reviewable acknowledgment that a pattern
        the linter flags (e.g. a dynamically-sized streaming feedback
        loop, rule TTG005) is intended.  An id that names no lint rule
        raises, so a typo cannot waive nothing silently.
        """
        from repro.analysis.rules import LINT_RULE_IDS

        unknown = [rid for rid in rule_ids if rid not in LINT_RULE_IDS]
        if unknown:
            raise GraphConstructionError(
                f"{self.name}.lint_waive: unknown lint rule id(s) {unknown}; "
                f"known: {', '.join(LINT_RULE_IDS)}"
            )
        self._lint_waivers = self._lint_waivers | frozenset(rule_ids)
        return self

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
        km = self._keymap
        rank = default_owner(key, nranks) if km is None else km(key)
        if not 0 <= rank < nranks:
            raise keymap_out_of_range(self, key, rank, nranks)
        return rank

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
