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
from typing import Any, Tuple


class ReadyQueue:
    """Abstract ready queue of (priority, item)."""

    name = "abstract"

    def push(self, item: Any, priority: int = 0) -> None:
        raise NotImplementedError

    def pop(self) -> Any:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0


class LifoQueue(ReadyQueue):
    name = "lifo"

    def __init__(self) -> None:
        self._items: list[Any] = []

    def push(self, item: Any, priority: int = 0) -> None:
        self._items.append(item)

    def pop(self) -> Any:
        return self._items.pop()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class FifoQueue(ReadyQueue):
    name = "fifo"

    def __init__(self) -> None:
        self._items: deque[Any] = deque()

    def push(self, item: Any, priority: int = 0) -> None:
        self._items.append(item)

    def pop(self) -> Any:
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class PriorityQueue(ReadyQueue):
    name = "priority"

    def __init__(self) -> None:
        self._heap: list[Tuple[int, int, Any]] = []
        self._seq = 0

    def push(self, item: Any, priority: int = 0) -> None:
        heapq.heappush(self._heap, (-priority, self._seq, item))
        self._seq += 1

    def pop(self) -> Any:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


_POLICIES = {"lifo": LifoQueue, "fifo": FifoQueue, "priority": PriorityQueue}
SCHEDULER_NAMES = tuple(sorted(_POLICIES))


def get_scheduler(name: str) -> ReadyQueue:
    """Instantiate a ready-queue policy by MCA-style name."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        raise KeyError(f"unknown scheduler {name!r}; known: {SCHEDULER_NAMES}") from None
