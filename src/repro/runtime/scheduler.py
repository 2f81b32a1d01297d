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
from typing import Any, Callable, Optional, Tuple


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

    # Physical checkpoints (repro.durability, format v2) capture queue
    # *contents* -- never the queue object itself, whose clock/telemetry
    # closures do not pickle -- and load them back into a live queue of
    # the same policy.
    def dump_state(self) -> dict:
        raise NotImplementedError

    def load_state(self, state: dict) -> None:
        raise NotImplementedError

    def _check_policy(self, state: dict) -> None:
        if state.get("policy") != self.name:
            raise ValueError(
                f"queue state is for policy {state.get('policy')!r}, "
                f"cannot load into {self.name!r}"
            )


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

    def dump_state(self) -> dict:
        return {"policy": self.name, "items": list(self._items)}

    def load_state(self, state: dict) -> None:
        self._check_policy(state)
        self._items = list(state["items"])


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

    def dump_state(self) -> dict:
        return {"policy": self.name, "items": list(self._items)}

    def load_state(self, state: dict) -> None:
        self._check_policy(state)
        self._items = deque(state["items"])


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

    def dump_state(self) -> dict:
        return {"policy": self.name, "heap": list(self._heap),
                "seq": self._seq}

    def load_state(self, state: dict) -> None:
        self._check_policy(state)
        self._heap = list(state["heap"])
        self._seq = state["seq"]


class InstrumentedQueue(ReadyQueue):
    """Telemetry wrapper around any policy: queue-wait + depth sampling.

    Items are boxed with their enqueue timestamp (the inner policy treats
    them opaquely, so every policy instruments the same way); on ``pop``
    the wait time and post-pop depth are reported through ``on_pop``, and
    ``on_push`` sees the post-push depth.  Installed by
    ``WorkerPool.enable_telemetry`` -- the uninstrumented queues have no
    overhead at all.
    """

    name = "instrumented"

    def __init__(
        self,
        inner: ReadyQueue,
        clock: Callable[[], float],
        on_push: Optional[Callable[[int], None]] = None,
        on_pop: Optional[Callable[[float, int], None]] = None,
    ) -> None:
        if len(inner):
            raise ValueError(
                "cannot instrument a non-empty ready queue "
                "(attach telemetry before submitting tasks)"
            )
        self._inner = inner
        self._clock = clock
        self._on_push = on_push
        self._on_pop = on_pop

    @property
    def policy(self) -> str:
        return self._inner.name

    def push(self, item: Any, priority: int = 0) -> None:
        self._inner.push((self._clock(), item), priority)
        if self._on_push is not None:
            self._on_push(len(self._inner))

    def pop(self) -> Any:
        enqueued, item = self._inner.pop()
        if self._on_pop is not None:
            self._on_pop(self._clock() - enqueued, len(self._inner))
        return item

    def __len__(self) -> int:
        return len(self._inner)

    def dump_state(self) -> dict:
        # Boxed (enqueue_ts, item) pairs dump as-is; the timestamps are
        # virtual times, valid again after the engine clock is restored.
        return {"policy": self.name, "inner": self._inner.dump_state()}

    def load_state(self, state: dict) -> None:
        self._check_policy(state)
        self._inner.load_state(state["inner"])


_POLICIES = {"lifo": LifoQueue, "fifo": FifoQueue, "priority": PriorityQueue}
SCHEDULER_NAMES = tuple(sorted(_POLICIES))


def get_scheduler(name: str) -> ReadyQueue:
    """Instantiate a ready-queue policy by MCA-style name."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        raise KeyError(f"unknown scheduler {name!r}; known: {SCHEDULER_NAMES}") from None
