"""Sending and broadcasting from task bodies (paper II-A, Fig. 2).

TTG supports sending data out of tasks three ways:

- to a single output terminal with a single task ID (``send``, Fig. 2a);
- to a single output terminal with several task IDs (``broadcast``,
  Fig. 2b);
- to multiple output terminals, each with one or more task IDs
  (``broadcast`` multi-terminal form, Fig. 2c) -- as in the TRSM task of
  Listing 1.

By default both copy the argument data so the task may keep mutating it;
passing ``mode='cref'`` bypasses the copy when the runtime owns the data,
and ``mode='move'`` relinquishes the object (zero-copy flow).

Bodies receive a :class:`TaskOutputs` handle as their last argument; the
module-level free functions (:func:`send`, :func:`broadcast`...) mirror the
C++ ``ttg::send``/``ttg::broadcast`` and resolve the current task's outputs
implicitly.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.exceptions import DeliveryError

#: valid copy-semantics modes (paper II-A / Listing 2).
MODES = ("value", "cref", "move")


class TaskOutputs:
    """Handle to a task's output terminals, bound to the executing rank."""

    __slots__ = ("_ex", "_tt", "_rank", "_key")

    def __init__(self, ex: Any, tt: Any, rank: int, key: Any = None) -> None:
        self._ex = ex
        self._tt = tt
        self._rank = rank
        self._key = key

    @property
    def rank(self) -> int:
        """Rank executing the current task."""
        return self._rank

    @property
    def key(self) -> Any:
        """Task ID of the current task (its own key)."""
        return self._key

    @property
    def nranks(self) -> int:
        return self._ex.nranks

    def _terminal(self, which: Union[int, str]):
        tt = self._tt
        if isinstance(which, int):
            if not (0 <= which < len(tt.outputs)):
                raise DeliveryError(
                    f"{tt.name} has no output terminal {which} "
                    f"(has {len(tt.outputs)})"
                )
            return tt.outputs[which]
        for t in tt.outputs:
            if t.name == which:
                return t
        raise DeliveryError(f"{tt.name} has no output terminal {which!r}")

    # ----------------------------------------------------------------- send

    def send(
        self,
        which: Union[int, str],
        key: Any = None,
        value: Any = None,
        mode: str = "value",
    ) -> None:
        """Send ``value`` for task ID ``key`` to output terminal ``which``."""
        _check_mode(mode)
        self._ex.send_from(self._rank, self._terminal(which), key, value, mode)

    def broadcast(
        self,
        which: Union[int, str],
        keys: Iterable[Any],
        value: Any = None,
        mode: str = "value",
    ) -> None:
        """Send ``value`` once per destination rank covering all ``keys``."""
        _check_mode(mode)
        self._ex.broadcast_from(
            self._rank, [(self._terminal(which), list(keys))], value, mode
        )

    def broadcast_multi(
        self,
        spec: Sequence[Tuple[Union[int, str], Iterable[Any]]],
        value: Any = None,
        mode: str = "value",
    ) -> None:
        """Multi-terminal broadcast (Fig. 2c / Listing 1 lines 37-39):
        one payload per destination rank across *all* terminals."""
        _check_mode(mode)
        resolved = [(self._terminal(w), list(ks)) for w, ks in spec]
        self._ex.broadcast_from(self._rank, resolved, value, mode)

    # ------------------------------------------------------------- streams

    def set_size(self, which: Union[int, str], key: Any, size: int) -> None:
        """Set the expected stream size of the *consumers* of terminal
        ``which`` for task ID ``key`` (dynamic bounded streams)."""
        self._stream_instant("stream:set_size", which, key, size)
        self._ex.set_stream_size_via(self._rank, self._terminal(which), key, size)

    def finalize(self, which: Union[int, str], key: Any) -> None:
        """Close the stream of the consumers of terminal ``which`` for
        ``key``: the stream length becomes whatever has arrived."""
        self._stream_instant("stream:finalize", which, key)
        self._ex.finalize_stream_via(self._rank, self._terminal(which), key)

    def _stream_instant(self, name: str, which: Union[int, str], key: Any,
                        size: Optional[int] = None) -> None:
        tel = self._ex.backend.telemetry
        if tel is not None and tel.bus.recording:
            from repro.telemetry.events import INSTANT, TID_RT

            now = tel.bus.now()
            tel.bus.record(
                INSTANT, name, "stream", self._rank, TID_RT, now, now, None,
                "sender terminal key! size?", current_task_label(),
                str(self._terminal(which).name), key, size,
            )


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise DeliveryError(f"invalid copy mode {mode!r}; valid: {MODES}")


# --------------------------------------------------------------------------
# Free-function API mirroring ttg::send / ttg::broadcast.  The current
# task's TaskOutputs is tracked in a stack maintained by the executor
# (repro.core.graph._RunBody pushes and pops around every body).
# --------------------------------------------------------------------------

_CURRENT: List[TaskOutputs] = []


def current_outputs() -> TaskOutputs:
    """The TaskOutputs of the task currently executing."""
    if not _CURRENT:
        raise DeliveryError("no task is currently executing (free send outside body)")
    return _CURRENT[-1]


def current_task_label() -> str:
    """``"NAME[key]"`` of the executing task, or ``"<external>"`` when no
    task body is on the stack (used by TTG-San provenance reporting)."""
    if not _CURRENT:
        return "<external>"
    outs = _CURRENT[-1]
    return f"{outs._tt.name}[{outs._key!r}]"


def send(
    which: Union[int, str],
    key: Any = None,
    value: Any = None,
    mode: str = "value",
    out: Optional[TaskOutputs] = None,
) -> None:
    """``ttg::send``: single key, single terminal."""
    (out or current_outputs()).send(which, key, value, mode)


def sendk(which: Union[int, str], key: Any, out: Optional[TaskOutputs] = None) -> None:
    """``ttg::sendk``: pure control message (task ID, void data)."""
    (out or current_outputs()).send(which, key, None)


def sendv(which: Union[int, str], value: Any, mode: str = "value",
          out: Optional[TaskOutputs] = None) -> None:
    """``ttg::sendv``: pure data message (void task ID)."""
    (out or current_outputs()).send(which, None, value, mode)


def broadcast(
    which: Union[int, str],
    keys: Iterable[Any],
    value: Any = None,
    mode: str = "value",
    out: Optional[TaskOutputs] = None,
) -> None:
    """``ttg::broadcast``: several task IDs, one terminal."""
    (out or current_outputs()).broadcast(which, keys, value, mode)


def broadcast_multi(
    spec: Sequence[Tuple[Union[int, str], Iterable[Any]]],
    value: Any = None,
    mode: str = "value",
    out: Optional[TaskOutputs] = None,
) -> None:
    """``ttg::broadcast``: multiple terminals, each with one or more IDs."""
    (out or current_outputs()).broadcast_multi(spec, value, mode)
