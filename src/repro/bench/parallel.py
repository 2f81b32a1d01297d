"""Run-granularity host parallelism for the benchmark matrix.

This is the simulator's only multi-core path.  Every (app, seed, config)
cell is an independent, deterministic simulation whose input spec and
output :class:`~repro.bench.history.BenchRecord` are plain picklable
data, so cells fan out over a fork pool with no protocol between them,
whatever engine runs inside each cell.

The pool degrades loudly: sandboxes without working POSIX semaphores
(``sem_open`` returning ``EPERM``) and hosts where the pool cannot fork
run the cells inline, preserving results exactly (cells are
deterministic, so parallel and inline runs return identical records in
identical order; only ``host_seconds`` differs) -- and say so with one
``RuntimeWarning`` plus a ``fallback`` record in the pool ledger, because
a sweep that silently lost its parallelism reports the wrong wall time.

Resilience: a cell whose worker dies (``SIGKILL``, OOM, an injected
fault) is retried with bounded exponential backoff -- the retries run
*inline in the parent*, because a pool whose worker was killed cannot be
trusted to return the result (``multiprocessing.Pool`` repopulates the
worker but the in-flight ``apply_async`` never resolves; a ``get``
timeout is the kill detector).  A cell that still fails after its
retries raises :class:`CellFailureError`, and every retry/failure is
recorded in a pool ledger when ``ledger_dir`` is set, so a watchdog
sweep's crash history is inspectable after the fact.
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


@dataclass
class CellFailure:
    """One cell's permanent failure after its retry budget."""

    cell: Dict[str, Any]
    attempts: int
    error: str

    def describe(self) -> str:
        return (f"{self.cell.get('app')}-seed{self.cell.get('seed')}"
                f"-{self.cell.get('engine', 'seq')}: {self.error} "
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


def _cell_tag(cell: Dict[str, Any]) -> Dict[str, Any]:
    return {"app": cell.get("app"), "seed": cell.get("seed"),
            "engine": cell.get("engine", "seq")}


def _pool_ledger(ledger_dir: Optional[str]) -> Any:
    """The sweep's pool ledger (retry/failure records), or ``None``."""
    if ledger_dir is None:
        return None
    from pathlib import Path

    from repro.telemetry.ledger import LedgerWriter

    Path(ledger_dir).mkdir(parents=True, exist_ok=True)
    return LedgerWriter(str(Path(ledger_dir) / "pool.ledger.jsonl"),
                        meta={"kind": "pool"})


def _retry_cell(
    cell: Dict[str, Any], err: str, attempts: int, retries: int,
    backoff: float, ledger: Any,
) -> Any:
    """Re-run a failed cell inline with exponential backoff.

    ``attempts`` counts tries already made; up to ``retries`` more are
    made (so a cell gets ``retries + 1`` attempts total).  Returns
    ``(record, None)`` on success or ``(None, CellFailure)``.
    """
    while attempts <= retries:
        if ledger is not None:
            ledger.retry(attempt=attempts, error=err, **_cell_tag(cell))
        if backoff > 0:
            time.sleep(backoff * 2 ** (attempts - 1))
        attempts += 1
        try:
            return measure_cell(cell), None
        except _retryable() as e:
            err = f"{type(e).__name__}: {e}"
    failure = CellFailure(cell, attempts=attempts, error=err)
    if ledger is not None:
        ledger.failure(attempts=attempts, error=err, **_cell_tag(cell))
    return None, failure


def _run_inline(
    cells: Sequence[Dict[str, Any]], retries: int, backoff: float,
    ledger: Any,
) -> List[BenchRecord]:
    results: List[BenchRecord] = []
    failures: List[CellFailure] = []
    for cell in cells:
        try:
            results.append(measure_cell(cell))
            continue
        except _retryable() as e:
            err = f"{type(e).__name__}: {e}"
        rec, failure = _retry_cell(cell, err, 1, retries, backoff, ledger)
        if failure is not None:
            failures.append(failure)
        else:
            results.append(rec)
    if failures:
        raise CellFailureError(failures)
    return results


def _inline_fallback(
    cells: Sequence[Dict[str, Any]], processes: int, reason: str,
    retries: int, backoff: float, ledger: Any,
) -> List[BenchRecord]:
    """Run inline a matrix that was meant for the pool, and say so."""
    warnings.warn(
        f"run_cells: {len(cells)} cells asked for {processes} processes "
        f"but run inline: {reason}", RuntimeWarning, stacklevel=3)
    if ledger is not None:
        ledger.fallback(reason=reason, cells=len(cells), processes=processes)
    return _run_inline(cells, retries, backoff, ledger)


def run_cells(
    cells: Sequence[Dict[str, Any]],
    processes: Optional[int] = None,
    *,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    timeout: float = DEFAULT_CELL_TIMEOUT,
    ledger_dir: Optional[str] = None,
) -> List[BenchRecord]:
    """Measure every cell spec (see ``measure_cell``), possibly in parallel.

    Results come back in input order no matter how the pool schedules
    them, so downstream grouping and the watchdog see the same sequence an
    inline run would produce.  One process or one cell runs inline by
    definition; a host that was asked for a pool and cannot run one (no
    usable semaphores, fork failure) also runs inline, with one
    ``RuntimeWarning`` and a ``fallback`` pool-ledger record.

    Crashed cells are retried up to ``retries`` times with exponential
    backoff (``backoff * 2**attempt`` seconds).  A pooled cell whose
    worker produces neither a result nor an exception within ``timeout``
    seconds is presumed killed (``multiprocessing.Pool`` repopulates a
    dead worker but the in-flight result is lost forever); its retries
    run inline in the parent, where a second kill cannot hide.  Cells
    that exhaust their retries raise :class:`CellFailureError` after the
    whole matrix has been driven; with ``ledger_dir`` every retry and
    permanent failure also lands in ``<ledger_dir>/pool.ledger.jsonl``.
    Dispatch is per-cell so each result can be awaited (and timed out)
    individually.
    """
    cells = list(cells)
    n = default_processes() if processes is None else processes
    n = min(n, len(cells))
    ledger = _pool_ledger(ledger_dir)
    try:
        if n < 2:
            return _run_inline(cells, retries, backoff, ledger)
        if not _pool_usable():
            return _inline_fallback(
                cells, n, "no usable multiprocessing semaphores",
                retries, backoff, ledger)
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                             else None)
        try:
            with ctx.Pool(n) as pool:
                pending = [pool.apply_async(measure_cell, (c,))
                           for c in cells]
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
                    rec, failure = _retry_cell(cell, err, 1, retries,
                                               backoff, ledger)
                    if failure is not None:
                        failures.append(failure)
                    else:
                        results.append(rec)
                if failures:
                    raise CellFailureError(failures)
                return results
        except (OSError, PermissionError) as e:
            # The probe passed but the pool still failed (e.g. fork
            # limits): the cells are deterministic, so inline execution
            # is equivalent.
            return _inline_fallback(
                cells, n, f"pool failed ({type(e).__name__}: {e})",
                retries, backoff, ledger)
    finally:
        if ledger is not None:
            ledger.close()


# ------------------------------------------------------------ engine bench


def engine_benchmark(
    engines: Sequence[str] = ("seq", "sharded"),
    *,
    app: str = "potrf",
    seeds: Sequence[int] = (0,),
    **cell_kwargs: Any,
) -> Dict[str, Dict[str, float]]:
    """Host-time comparison of the event engines on one watchdog app.

    Runs the same (app, seed) cells inline, once per engine kind, and
    reports per engine: total host seconds, the virtual makespan
    (identical across engines by the determinism guarantee -- a mismatch
    here is a bug, and is raised), and the host-seconds ratio over the
    first engine listed.  The ratio is reported, never asserted on: host
    timing on a shared or single-core machine is noise, only the makespan
    equality is a correctness claim.
    """
    results: Dict[str, Dict[str, float]] = {}
    reference: Optional[List[float]] = None
    base_host: Optional[float] = None
    for kind in engines:
        t0 = time.perf_counter()
        records = [
            measure_cell(dict(cell_kwargs, app=app, seed=s, engine=kind))
            for s in seeds
        ]
        host = time.perf_counter() - t0
        makespans = [r.makespan for r in records]
        if reference is None:
            reference = makespans
        elif makespans != reference:
            raise AssertionError(
                f"engine {kind!r} diverged from {engines[0]!r}: "
                f"{makespans} != {reference}"
            )
        if base_host is None:
            base_host = host
        results[kind] = {
            "host_seconds": host,
            "makespan": makespans[0],
            "speedup": base_host / host if host > 0 else 0.0,
        }
    return results
