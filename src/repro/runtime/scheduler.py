"""MCA-style pluggable ready-queue policies (paper II-D, PaRSEC MCA).

PaRSEC's modular component architecture lets schedulers be swapped at
runtime; we provide the three policies the experiments exercise:

- ``lifo``  -- depth-first: newest ready task first (PaRSEC's default
  locality-friendly behaviour).
- ``fifo``  -- breadth-first: oldest ready task first.
- ``priority`` -- highest priority first (ties broken FIFO); this is the
  policy that makes the per-template priority maps effective.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any


class ReadyQueue:
    """Abstract ready queue of (priority, item).

    ``items`` is the policy's container (a list or deque), empty exactly
    when the queue is: the dispatch loop tests it without a call.  A push
    appends to it unless the policy orders its items on push.
    """

    name = "abstract"

    def push(self, item: Any, priority: int = 0) -> None:
        self.items.append(item)

    def pop(self) -> Any:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.items)


class LifoQueue(ReadyQueue):
    name = "lifo"

    def __init__(self) -> None:
        self.items: list[Any] = []

    def pop(self) -> Any:
        return self.items.pop()


class FifoQueue(ReadyQueue):
    name = "fifo"

    def __init__(self) -> None:
        self.items: deque[Any] = deque()

    def pop(self) -> Any:
        return self.items.popleft()


class PriorityQueue(ReadyQueue):
    name = "priority"

    def __init__(self) -> None:
        # heap of (-priority, push sequence, item)
        self.items: list[tuple[int, int, Any]] = []
        self._seq = 0

    def push(self, item: Any, priority: int = 0) -> None:
        heapq.heappush(self.items, (-priority, self._seq, item))
        self._seq += 1

    def pop(self) -> Any:
        return heapq.heappop(self.items)[2]


_POLICIES = {"lifo": LifoQueue, "fifo": FifoQueue, "priority": PriorityQueue}
SCHEDULER_NAMES = tuple(sorted(_POLICIES))


def get_scheduler(name: str) -> ReadyQueue:
    """Instantiate a ready-queue policy by MCA-style name."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        raise KeyError(f"unknown scheduler {name!r}; known: {SCHEDULER_NAMES}") from None
