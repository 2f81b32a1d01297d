"""Edges: typed message conduits between template-task terminals.

An edge encodes all *possible* flows of messages between an output terminal
and one or more input terminals (Section II).  Each message consists of a
task ID (key) and data; either part may be void.  The C++ implementation
types edges at compile time; here the optional ``key_type``/``value_type``
declarations are validated at graph-construction and message-send time.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Any, List, Optional, Tuple, Type

from repro.core.exceptions import TypeMismatchError


class Void:
    """Sentinel *type* for void keys or values.

    Using ``Void`` as an edge's value type yields pure control flow; using
    it as the key type yields pure data flow (paper, Section II).
    """

    def __new__(cls) -> "Void":
        raise TypeError("Void is a type-level sentinel and cannot be instantiated")


_edge_ids = itertools.count()


class Edge:
    """A typed conduit connecting one or more producers to consumers.

    Parameters
    ----------
    name:
        Label used in error messages and graph rendering.
    key_type / value_type:
        Optional declared types.  ``None`` disables checking; ``Void``
        declares the part absent (messages must carry ``None`` there).
    """

    def __init__(
        self,
        name: str = "",
        key_type: Optional[Type[Any]] = None,
        value_type: Optional[Type[Any]] = None,
    ) -> None:
        self.id = next(_edge_ids)
        self.name = name or f"edge{self.id}"
        self.key_type = key_type
        self.value_type = value_type
        # (weakref.ref(template_task), terminal_index) pairs, filled during
        # tt creation.  An edge does not keep a template alive (its graph or
        # its caller does): readers skip a freed one, the next add drops it.
        self.producers: List[Tuple[weakref.ref, int]] = []
        self.consumers: List[Tuple[weakref.ref, int]] = []

    # ------------------------------------------------------------- wiring

    def add_producer(self, tt: Any, index: int) -> None:
        self.producers = [e for e in self.producers if e[0]() is not None]
        self.producers.append((weakref.ref(tt), index))

    def add_consumer(self, tt: Any, index: int) -> None:
        for ref, _ in self.producers:  # their compiled routes are stale
            producer = ref()
            if producer is not None:
                producer._changed()
        self.consumers = [e for e in self.consumers if e[0]() is not None]
        self.consumers.append((weakref.ref(tt), index))

    # ------------------------------------------------------------ checking

    def check_key(self, key: Any) -> None:
        if self.key_type is None:
            return
        if self.key_type is Void:
            if key is not None:
                raise TypeMismatchError(
                    f"edge {self.name!r} has void key type but got key {key!r}"
                )
            return
        if not isinstance(key, self.key_type):
            raise TypeMismatchError(
                f"edge {self.name!r} expects key of type "
                f"{self.key_type.__name__}, got {type(key).__name__}: {key!r}"
            )

    def check_value(self, value: Any) -> None:
        if self.value_type is None:
            return
        if self.value_type is Void:
            if value is not None:
                raise TypeMismatchError(
                    f"edge {self.name!r} has void value type but got {value!r}"
                )
            return
        if not isinstance(value, self.value_type):
            raise TypeMismatchError(
                f"edge {self.name!r} expects value of type "
                f"{self.value_type.__name__}, got {type(value).__name__}"
            )

    def __repr__(self) -> str:
        kt = getattr(self.key_type, "__name__", "any")
        vt = getattr(self.value_type, "__name__", "any")
        return f"Edge({self.name!r}, key={kt}, value={vt})"


def edges(*es: Edge) -> Tuple[Edge, ...]:
    """Mirror of ``ttg::edges(...)``: bundle edges for make_tt."""
    for e in es:
        if not isinstance(e, Edge):
            raise TypeError(f"edges() expects Edge instances, got {type(e).__name__}")
    return es
