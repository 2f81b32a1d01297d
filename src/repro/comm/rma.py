"""RMA windows: registered memory exposed for one-sided access.

The splitmd protocol registers an object's contiguous memory and ships the
registration record inside the metadata message; the receiver then issues a
get.  :class:`RmaWindow` models registration handles so that transfers can be
validated (a get against a released handle is an error, catching
use-after-release bugs in the data life-cycle logic).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.comm.endpoint import CommEngine


class RmaError(RuntimeError):
    """Invalid one-sided access (bad handle, released region...)."""


class RmaWindow:
    """Registry of exposed memory regions, one namespace per cluster."""

    def __init__(self, comm: CommEngine) -> None:
        self.comm = comm
        self._regions: Dict[int, tuple[int, Optional[np.ndarray], int]] = {}
        # Explicit handle counter instead of itertools.count: checkpoints
        # must capture/restore it.
        self._next = 1

    def register(self, rank: int, payload: Optional[np.ndarray], nbytes: int) -> int:
        """Expose ``payload`` (may be None for synthetic data) owned by
        ``rank``; returns a handle to embed in metadata messages."""
        handle = self._next
        self._next = handle + 1
        self._regions[handle] = (rank, payload, nbytes)
        return handle

    def release(self, handle: int) -> None:
        """Withdraw a registration (sender-side release notification)."""
        if handle not in self._regions:
            raise RmaError(f"double release of RMA handle {handle}")
        del self._regions[handle]

    def is_registered(self, handle: int) -> bool:
        return handle in self._regions

    def live_handles(self) -> int:
        """Registrations not yet released (should be 0 at quiescence --
        a nonzero count means the data life-cycle leaked source objects)."""
        return len(self._regions)

    def get(
        self,
        origin: int,
        handle: int,
        on_complete: Callable[[Optional[np.ndarray]], Any],
    ) -> None:
        """Fetch a registered region into ``origin``.

        ``on_complete(payload)`` runs at the origin when the transfer lands.
        The payload is copied (the bytes now live at the origin).
        """
        try:
            target, payload, nbytes = self._regions[handle]
        except KeyError:
            raise RmaError(f"get on unknown/released RMA handle {handle}") from None
        self.comm.rma_get(origin, target, nbytes, _Landed(payload, on_complete))


class _Landed:
    """Heap record for an RMA payload landing at the origin."""

    __slots__ = ("payload", "on_complete")

    def __init__(self, payload: Optional[np.ndarray],
                 on_complete: Callable[[Optional[np.ndarray]], Any]) -> None:
        self.payload = payload
        self.on_complete = on_complete

    def __call__(self) -> None:
        payload = self.payload
        data = None if payload is None else np.array(payload, copy=True)
        self.on_complete(data)
