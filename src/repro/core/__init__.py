"""TTG core: the Template Task Graph programming model (paper Section II).

The public API mirrors the C++ ``ttg`` namespace:

>>> from repro import core as ttg
>>> e = ttg.Edge("a2b", key_type=int, value_type=int)
>>> def a(key, outs):
...     outs.send(0, key + 1, key * 10)
>>> def b(key, x, outs):
...     print(key, x)
>>> A = ttg.make_tt(a, [], [e], name="A", keymap=lambda k: 0)
>>> B = ttg.make_tt(b, [e], [], name="B", keymap=lambda k: 0)
>>> g = ttg.TaskGraph([A, B])

Bind to a backend with ``g.executable(backend)``, seed with ``invoke``,
drain with ``fence``.
"""

from repro.core.edge import Edge, Void, edges
from repro.core.exceptions import (
    TTGError,
    GraphConstructionError,
    TypeMismatchError,
    DeliveryError,
    StreamError,
    SanitizerError,
)
from repro.core.graph import TaskGraph, Executable
from repro.core.keymap import (
    hash_keymap,
    round_robin_keymap,
    block_cyclic_keymap,
    constant_keymap,
    subtree_keymap,
    zero_priomap,
)
from repro.core.messaging import (
    TaskOutputs,
    send,
    sendk,
    sendv,
    broadcast,
    broadcast_multi,
    current_outputs,
)
from repro.core.task import TemplateTask, make_tt

__all__ = [
    "Edge",
    "Void",
    "edges",
    "TTGError",
    "GraphConstructionError",
    "TypeMismatchError",
    "DeliveryError",
    "StreamError",
    "SanitizerError",
    "TaskGraph",
    "Executable",
    "hash_keymap",
    "round_robin_keymap",
    "block_cyclic_keymap",
    "constant_keymap",
    "subtree_keymap",
    "zero_priomap",
    "TaskOutputs",
    "send",
    "sendk",
    "sendv",
    "broadcast",
    "broadcast_multi",
    "current_outputs",
    "TemplateTask",
    "make_tt",
]
