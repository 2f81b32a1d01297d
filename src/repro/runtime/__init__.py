"""Task runtimes ("TTG backends", Section II-D).

The TTG layer is a higher-level abstraction over a low-level distributed
task runtime.  Two backends are provided, mirroring the paper:

- :class:`~repro.runtime.parsec.ParsecBackend` -- the performance vehicle:
  RMA/splitmd transfers, runtime-owned data (no copies for const-ref sends),
  cheap communication progress, MCA-style pluggable schedulers.
- :class:`~repro.runtime.madness.MadnessBackend` -- the proof-of-concept
  backend: a single AM server thread, full-object serialization with
  buffer copies, and copies even for const-ref sends (the runtime does
  not own TTG data).

Both support the full TTG feature set; they differ only in performance
characteristics, exactly as the paper states.
"""

from repro.runtime.base import (
    Backend, BackendConfig, RunStats, TerminationError, WorkerPool,
)
from repro.runtime.scheduler import get_scheduler, SCHEDULER_NAMES
from repro.runtime.parsec import ParsecBackend
from repro.runtime.madness import MadnessBackend

BACKENDS = {"parsec": ParsecBackend, "madness": MadnessBackend}


def make_backend(name, cluster, **kwargs):
    """Instantiate a backend by name ('parsec' or 'madness')."""
    try:
        cls = BACKENDS[name.lower()]
    except KeyError:
        raise KeyError(f"unknown backend {name!r}; known: {sorted(BACKENDS)}") from None
    return cls(cluster, **kwargs)


__all__ = [
    "Backend",
    "BackendConfig",
    "RunStats",
    "WorkerPool",
    "get_scheduler",
    "SCHEDULER_NAMES",
    "TerminationError",
    "ParsecBackend",
    "MadnessBackend",
    "BACKENDS",
    "make_backend",
]
