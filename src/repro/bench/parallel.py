"""Run-granularity host parallelism for the benchmark matrix.

This is the simulator's only multi-core path.  Every (app, seed, config)
cell is an independent, deterministic simulation whose input spec and
output :class:`~repro.bench.history.BenchRecord` are plain picklable
data, so cells fan out over a fork pool with no protocol between them.

The pool degrades loudly: sandboxes without working POSIX semaphores
(``sem_open`` returning ``EPERM``) and hosts where the pool cannot fork
run the cells inline, preserving results exactly (cells are
deterministic, so parallel and inline runs return identical records in
identical order; only ``host_seconds`` differs) -- and say so with one
``RuntimeWarning``, because a sweep that silently lost its parallelism
reports the wrong wall time.

Resilience: a cell whose worker dies (``SIGKILL``, OOM, an injected
fault) is retried with bounded exponential backoff -- the retries run
*inline in the parent*, because a pool whose worker was killed cannot be
trusted to return the result (``multiprocessing.Pool`` repopulates the
worker but the in-flight ``apply_async`` never resolves; a ``get``
timeout is the kill detector).  Every retry says so with one
``RuntimeWarning`` naming the cell, the attempt and the error; a cell
that still fails after its retries raises :class:`CellFailureError`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.history import BenchRecord, measure_cell

#: Default retry budget per cell (attempts = retries + 1).
DEFAULT_RETRIES = 2

#: First-retry backoff in seconds; doubles per subsequent retry.
DEFAULT_BACKOFF = 0.25

#: Per-attempt pool timeout (seconds): a worker that neither returns nor
#: raises within this window is presumed killed.
DEFAULT_CELL_TIMEOUT = 300.0


def _cell_id(cell: Dict[str, Any]) -> str:
    return (f"{cell.get('app')}-seed{cell.get('seed')}"
            f"-{cell.get('engine', 'seq')}")


@dataclass
class CellFailure:
    """One cell's permanent failure after its retry budget."""

    cell: Dict[str, Any]
    attempts: int
    error: str

    def describe(self) -> str:
        return (f"{_cell_id(self.cell)}: {self.error} "
                f"({self.attempts} attempt(s))")


class CellFailureError(RuntimeError):
    """Raised when matrix cells permanently failed; carries the details."""

    def __init__(self, failures: List[CellFailure]) -> None:
        self.failures = failures
        super().__init__(
            f"{len(failures)} benchmark cell(s) permanently failed: "
            + "; ".join(f.describe() for f in failures)
        )


def default_processes() -> int:
    """Worker count: one per available core, at least 1."""
    try:
        ncpu = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        ncpu = os.cpu_count() or 1
    return max(1, ncpu)


def _pool_usable() -> bool:
    """Probe whether a process pool can exist here at all.

    Creating a multiprocessing primitive is the cheapest way to find out:
    restricted sandboxes fail at ``sem_open`` with ``EPERM``/``ENOSYS``
    long before any worker runs.
    """
    try:
        mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                       else None).Semaphore(1)
    except (OSError, PermissionError, ValueError):
        return False
    return True


#: Exceptions a retry may recover from.  Injected faults are included by
#: design (they model crashes); KeyboardInterrupt/SystemExit are not.
def _retryable() -> tuple:
    from repro.durability.chaos import InjectedFault

    return (Exception, InjectedFault)


def _retry_cell(
    cell: Dict[str, Any], err: str, attempts: int, retries: int,
    backoff: float,
) -> Any:
    """Re-run a failed cell inline with exponential backoff.

    ``attempts`` counts tries already made; up to ``retries`` more are
    made (so a cell gets ``retries + 1`` attempts total).  Returns
    ``(record, None)`` on success or ``(None, CellFailure)``.
    """
    while attempts <= retries:
        warnings.warn(
            f"run_cells: retrying {_cell_id(cell)} after attempt "
            f"{attempts}: {err}", RuntimeWarning, stacklevel=2)
        if backoff > 0:
            time.sleep(backoff * 2 ** (attempts - 1))
        attempts += 1
        try:
            return measure_cell(cell), None
        except _retryable() as e:
            err = f"{type(e).__name__}: {e}"
    return None, CellFailure(cell, attempts=attempts, error=err)


def _run_inline(
    cells: Sequence[Dict[str, Any]], retries: int, backoff: float,
) -> List[BenchRecord]:
    results: List[BenchRecord] = []
    failures: List[CellFailure] = []
    for cell in cells:
        try:
            results.append(measure_cell(cell))
            continue
        except _retryable() as e:
            err = f"{type(e).__name__}: {e}"
        rec, failure = _retry_cell(cell, err, 1, retries, backoff)
        if failure is not None:
            failures.append(failure)
        else:
            results.append(rec)
    if failures:
        raise CellFailureError(failures)
    return results


def _inline_fallback(
    cells: Sequence[Dict[str, Any]], processes: int, reason: str,
    retries: int, backoff: float,
) -> List[BenchRecord]:
    """Run inline a matrix that was meant for the pool, and say so."""
    warnings.warn(
        f"run_cells: {len(cells)} cells asked for {processes} processes "
        f"but run inline: {reason}", RuntimeWarning, stacklevel=3)
    return _run_inline(cells, retries, backoff)


def run_cells(
    cells: Sequence[Dict[str, Any]],
    processes: Optional[int] = None,
    *,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    timeout: float = DEFAULT_CELL_TIMEOUT,
) -> List[BenchRecord]:
    """Measure every cell spec (see ``measure_cell``), possibly in parallel.

    Results come back in input order no matter how the pool schedules
    them, so downstream grouping and the watchdog see the same sequence an
    inline run would produce.  One process or one cell runs inline by
    definition; a host that was asked for a pool and cannot run one (no
    usable semaphores, fork failure) also runs inline, with one
    ``RuntimeWarning``.

    Crashed cells are retried up to ``retries`` times with exponential
    backoff (``backoff * 2**attempt`` seconds), each with one
    ``RuntimeWarning``.  A pooled cell whose worker produces neither a
    result nor an exception within ``timeout`` seconds is presumed killed
    (``multiprocessing.Pool`` repopulates a dead worker but the in-flight
    result is lost forever); its retries run inline in the parent, where
    a second kill cannot hide.  Cells that exhaust their retries raise
    :class:`CellFailureError` after the whole matrix has been driven.
    Dispatch is per-cell so each result can be awaited (and timed out)
    individually.
    """
    cells = list(cells)
    n = default_processes() if processes is None else processes
    n = min(n, len(cells))
    if n < 2:
        return _run_inline(cells, retries, backoff)
    if not _pool_usable():
        return _inline_fallback(
            cells, n, "no usable multiprocessing semaphores", retries,
            backoff)
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                         else None)
    try:
        with ctx.Pool(n) as pool:
            pending = [pool.apply_async(measure_cell, (c,)) for c in cells]
            results: List[BenchRecord] = []
            failures: List[CellFailure] = []
            for cell, fut in zip(cells, pending):
                try:
                    results.append(fut.get(timeout))
                    continue
                except mp.TimeoutError:
                    err = (f"worker returned nothing within {timeout:g}s "
                           f"(presumed killed)")
                except _retryable() as e:
                    err = f"{type(e).__name__}: {e}"
                rec, failure = _retry_cell(cell, err, 1, retries, backoff)
                if failure is not None:
                    failures.append(failure)
                else:
                    results.append(rec)
            if failures:
                raise CellFailureError(failures)
            return results
    except (OSError, PermissionError) as e:
        # The probe passed but the pool still failed (e.g. fork limits):
        # the cells are deterministic, so inline execution is equivalent.
        return _inline_fallback(
            cells, n, f"pool failed ({type(e).__name__}: {e})",
            retries, backoff)
