"""Global termination detection.

Distributed TTG execution needs to know when no task is running anywhere and
no message is in flight (paper II-D lists global termination detection among
the required runtime features).  Two mechanisms are provided:

- :class:`TerminationDetector` -- the counting detector the backends actually
  use: a conservation check over (messages sent, messages delivered, tasks
  pending, tasks executing).  Because the simulator is a single event loop,
  quiescence is exact; the detector both *signals* quiescence to interested
  callbacks and *validates* at shutdown that no work was lost (a lost
  message or stuck task is a hard error, not a hang).

- :class:`DijkstraScholten` -- a faithful implementation of the
  Dijkstra-Scholten diffusing-computation algorithm over an explicit parent
  tree, exercised by tests as the "real" distributed algorithm a
  non-simulated port would use.
"""

from __future__ import annotations

from typing import Callable, List, Optional


class TerminationError(RuntimeError):
    """Conservation violated: work was created but never retired."""


class TerminationDetector:
    """Counting quiescence detector.

    Backends call the ``*_sent``/``*_delivered``/``task_*`` hooks; when all
    counters balance the registered callbacks fire (once per quiescence
    epoch -- new work re-arms the detector).
    """

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.tasks_created = 0
        self.tasks_retired = 0
        self._callbacks: List[Callable[[], None]] = []
        self._armed = False
        # Set by Backend.attach_telemetry: quiescence epochs become
        # instant events on the runtime timeline.
        self.telemetry = None
        self._epochs = 0

    # ------------------------------------------------------------ accounting

    def message_sent(self) -> None:
        self.messages_sent += 1
        self._armed = True

    def message_delivered(self) -> None:
        delivered = self.messages_delivered = self.messages_delivered + 1
        sent = self.messages_sent
        if delivered > sent:
            raise TerminationError("more messages delivered than sent")
        # The quiescence test of _check, inlined: these two hooks run once
        # per event and the counters balance a handful of times per run.
        if delivered == sent and self.tasks_created == self.tasks_retired:
            self._check()

    def task_created(self, n: int = 1) -> None:
        self.tasks_created += n
        self._armed = True

    def task_retired(self) -> None:
        retired = self.tasks_retired = self.tasks_retired + 1
        created = self.tasks_created
        if retired > created:
            raise TerminationError("more tasks retired than created")
        if retired == created and self.messages_sent == self.messages_delivered:
            self._check()

    # ------------------------------------------------------------- queries

    @property
    def quiescent(self) -> bool:
        return (
            self.messages_sent == self.messages_delivered
            and self.tasks_created == self.tasks_retired
        )

    def on_quiescence(self, cb: Callable[[], None]) -> None:
        self._callbacks.append(cb)

    def _check(self) -> None:
        if self._armed and self.quiescent:
            self._armed = False
            self._epochs += 1
            tel = self.telemetry
            if tel is not None:
                if tel.bus.recording:
                    from repro.telemetry.events import TID_RT

                    tel.bus.instant(
                        "quiescence", 0, TID_RT, cat="rt",
                        epoch=self._epochs,
                        tasks=self.tasks_retired,
                        messages=self.messages_delivered,
                    )
                tel.metrics.counter("quiescence_epochs").inc()
            callbacks, self._callbacks = self._callbacks, []
            for cb in callbacks:
                cb()

    def validate(self) -> None:
        """Raise unless every message was delivered and every task retired."""
        if not self.quiescent:
            raise TerminationError(
                f"lost work: messages {self.messages_delivered}/{self.messages_sent}"
                f" delivered, tasks {self.tasks_retired}/{self.tasks_created} retired"
            )


class DijkstraScholten:
    """Dijkstra-Scholten termination detection over a diffusing computation.

    Rank 0 is the root.  Every activation message from ``u`` to ``v`` makes
    ``u`` the parent of ``v`` if ``v`` was idle; acknowledgements flow back
    when a node is idle with no outstanding children.  Termination is
    declared at the root when it is idle with zero deficit.
    """

    def __init__(self, nranks: int, on_terminate: Optional[Callable[[], None]] = None) -> None:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        self.parent: List[Optional[int]] = [None] * nranks
        self.deficit = [0] * nranks  # unacknowledged messages sent by rank
        self.active = [False] * nranks
        self.on_terminate = on_terminate
        self.terminated = False

    def start(self, root: int = 0) -> None:
        """Root becomes active, beginning the diffusing computation."""
        if self.terminated:
            raise TerminationError("computation already terminated")
        self.active[root] = True

    def send(self, src: int, dst: int) -> None:
        """Record an activation message src -> dst (call before deliver)."""
        if not self.active[src]:
            raise TerminationError(f"idle rank {src} cannot send")
        self.deficit[src] += 1

    def deliver(self, src: int, dst: int) -> None:
        """Deliver a message at dst: dst activates, parent set if idle."""
        if self.active[dst]:
            # Already engaged: acknowledge immediately.
            self._ack(src)
        else:
            self.active[dst] = True
            self.parent[dst] = src

    def idle(self, rank: int) -> None:
        """Rank finished local work; may detach from the tree."""
        self.active[rank] = False
        self._try_detach(rank)

    def _ack(self, rank: int) -> None:
        self.deficit[rank] -= 1
        if self.deficit[rank] < 0:
            raise TerminationError(f"negative deficit on rank {rank}")
        self._try_detach(rank)

    def _try_detach(self, rank: int) -> None:
        if self.active[rank] or self.deficit[rank] != 0:
            return
        parent = self.parent[rank]
        if parent is not None:
            self.parent[rank] = None
            self._ack(parent)
        elif rank == 0 and not self.terminated:
            self.terminated = True
            if self.on_terminate is not None:
                self.on_terminate()
