"""MADNESS ``World``: global namespaces, RMI, futures, fences (paper II-D).

The central elements of the MADNESS parallel runtime are (a) futures,
(b) global namespaces with one-sided access, (c) remote method invocation on
objects in global namespaces, and (d) an SPMD model with a fence.  The
native-MADNESS MRA baseline and several tests are written against this API;
TTG-over-MADNESS uses only the lower-level backend.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.runtime.base import CONTROL_BYTES
from repro.runtime.madness import MadnessBackend
from repro.runtime.futures import Future


class WorldError(RuntimeError):
    """Misuse of the global namespace (unknown object, bad rank...)."""


class World:
    """An SPMD world over a MADNESS backend.

    Objects registered under a name exist once per rank (a distributed
    object); ``send`` invokes a method on the instance living at ``dst`` and
    returns a :class:`Future` for the result.  ``task`` submits local work
    to the rank's thread pool.  ``fence`` drains all outstanding work.
    """

    def __init__(self, backend: MadnessBackend) -> None:
        self.backend = backend
        self.nranks = backend.nranks
        self._objects: Dict[str, list] = {}

    # ----------------------------------------------------------- namespace

    def register(self, name: str, factory: Callable[[int, "World"], Any]) -> None:
        """Create one instance per rank: ``factory(rank, world)``."""
        if name in self._objects:
            raise WorldError(f"object {name!r} already registered")
        self._objects[name] = [factory(r, self) for r in range(self.nranks)]

    def local(self, name: str, rank: int) -> Any:
        try:
            return self._objects[name][rank]
        except KeyError:
            raise WorldError(f"no object {name!r} in world") from None

    # ----------------------------------------------------------------- RMI

    def send(
        self,
        src: int,
        dst: int,
        name: str,
        method: str,
        *args: Any,
        nbytes: int = CONTROL_BYTES,
    ) -> Future:
        """Invoke ``method(*args)`` on the ``name`` instance at ``dst``.

        The result is delivered into the returned future (a second AM flows
        back when ``src != dst`` and the caller holds the future).
        """
        obj = self.local(name, dst)
        fut: Future = Future()
        invoke = _Invoke(self.backend, obj, method, args, fut, src, dst)
        if src == dst:
            self.backend.post_local(invoke)
        else:
            self.backend.send_control(src, dst, invoke, nbytes=nbytes)
        return fut

    # --------------------------------------------------------------- tasks

    def task(
        self,
        rank: int,
        fn: Callable[..., Any],
        *args: Any,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        name: str = "world.task",
    ) -> Future:
        """Submit ``fn(*args)`` to ``rank``'s thread pool; future of result."""
        fut: Future = Future()
        self.backend.submit(
            rank,
            _FutureTask(fut, fn, args),
            flops=flops,
            bytes_moved=bytes_moved,
            name=name,
        )
        return fut

    # --------------------------------------------------------------- fence

    def fence(self) -> float:
        """Global synchronization: drain all tasks and messages.

        Charges a barrier on top of draining the event queue, mirroring
        MADNESS's ``world.gop.fence()``.
        """
        self.backend.engine.run()
        self.backend._check_drained()
        barrier = self.backend.cluster.network.barrier_time(self.nranks)
        if barrier > 0.0:
            self.backend.engine.schedule(barrier, _noop)
            self.backend.engine.run()
        return self.backend.engine.now


def _noop() -> None:
    """Barrier placeholder event."""


class _Invoke:
    """Heap record for a World RMI: run the method at ``dst``, route the
    result back into the caller's future."""

    __slots__ = ("backend", "obj", "method", "args", "fut", "src", "dst")

    def __init__(self, backend: MadnessBackend, obj: Any, method: str,
                 args: tuple, fut: Future, src: int, dst: int) -> None:
        self.backend = backend
        self.obj = obj
        self.method = method
        self.args = args
        self.fut = fut
        self.src = src
        self.dst = dst

    def __call__(self) -> None:
        result = getattr(self.obj, self.method)(*self.args)
        if self.src == self.dst:
            self.fut.set(result)
        else:
            self.backend.send_control(self.dst, self.src,
                                      _SetFuture(self.fut, result))


class _SetFuture:
    """Reply record: land an RMI result in the caller's future."""

    __slots__ = ("fut", "result")

    def __init__(self, fut: Future, result: Any) -> None:
        self.fut = fut
        self.result = result

    def __call__(self) -> None:
        self.fut.set(self.result)


class _FutureTask:
    """Pool-task record: run ``fn(*args)`` and set the future."""

    __slots__ = ("fut", "fn", "args")

    def __init__(self, fut: Future, fn: Callable[..., Any], args: tuple) -> None:
        self.fut = fut
        self.fn = fn
        self.args = args

    def __call__(self) -> None:
        self.fut.set(self.fn(*self.args))
