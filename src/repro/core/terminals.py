"""Input/output terminals, including streaming terminals with reducers.

A template task owns ordered sets of input and output terminals bound to
edges.  A *streaming* input terminal (paper II-B) accepts not one message
per task ID but a bounded or unbounded stream, folded by a user-supplied
reducer; the task fires once the expected stream size is reached (set
statically, dynamically per key, or via explicit finalization).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.edge import Edge
from repro.core.exceptions import GraphConstructionError


class InputTerminal:
    """One input slot of a template task, bound to an edge."""

    def __init__(self, tt: Any, index: int, edge: Edge, name: str = "") -> None:
        self.tt = tt
        self.index = index
        self.edge = edge
        self.name = name or f"in{index}"
        # Streaming configuration (None => plain single-message terminal).
        # ``is_streaming`` is read once per delivered message, so it is a
        # plain attribute; :meth:`set_reducer` is the only writer.
        self.reducer: Optional[Callable[[Any, Any], Any]] = None
        self.static_stream_size: Optional[int] = None
        self.is_streaming = False
        edge.add_consumer(tt, index)

    def set_reducer(
        self, reducer: Callable[[Any, Any], Any], size: Optional[int] = None
    ) -> None:
        """Make this a streaming terminal.

        ``reducer(accumulated, incoming) -> accumulated`` folds the stream;
        the first message initializes the accumulator.  ``size`` fixes the
        expected stream length for every key (e.g. 2**d children in the MRA
        compress operation); pass None for per-key dynamic sizing via
        ``set_argstream_size`` or ``finalize``.
        """
        if self.reducer is not None:
            raise GraphConstructionError(
                f"terminal {self.tt.name}.{self.name} already has a reducer"
            )
        if size is not None and size < 1:
            raise GraphConstructionError("stream size must be >= 1")
        self.reducer = reducer
        self.static_stream_size = size
        self.is_streaming = True
        self.tt.input_became_streaming(self)

    def __repr__(self) -> str:
        kind = "stream" if self.is_streaming else "single"
        return f"InputTerminal({self.tt.name}.{self.name}, {kind}, edge={self.edge.name})"


class OutputTerminal:
    """One output slot of a template task, bound to an edge."""

    def __init__(self, tt: Any, index: int, edge: Edge, name: str = "") -> None:
        self.tt = tt
        self.index = index
        self.edge = edge
        self.name = name or f"out{index}"
        edge.add_producer(tt, index)

    def __repr__(self) -> str:
        return f"OutputTerminal({self.tt.name}.{self.name}, edge={self.edge.name})"
