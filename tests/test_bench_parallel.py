"""``run_cells`` says so when a matrix meant for the pool runs inline."""

import warnings

import pytest

from repro.bench import parallel
from repro.telemetry.ledger import read_ledger, validate_ledger

CELLS = [{"app": "fw", "seed": s, "nodes": 2, "n": 256, "b": 128,
          "workers": 2} for s in (0, 1)]


def test_unusable_pool_falls_back_loudly(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "_pool_usable", lambda: False)
    with pytest.warns(RuntimeWarning, match="semaphores") as caught:
        records = parallel.run_cells(CELLS, processes=2,
                                     ledger_dir=str(tmp_path))
    assert len(caught) == 1
    assert [r.seed for r in records] == [0, 1]
    ledger = read_ledger(str(tmp_path / "pool.ledger.jsonl"))
    assert validate_ledger(ledger) == []
    fallbacks = [r for r in ledger if r["type"] == "fallback"]
    assert len(fallbacks) == 1
    assert fallbacks[0]["cells"] == 2 and fallbacks[0]["processes"] == 2
    assert "semaphores" in fallbacks[0]["reason"]


def test_pool_failure_after_probe_falls_back_loudly(monkeypatch):
    class NoForkContext:
        def Pool(self, n):
            raise OSError("fork: resource temporarily unavailable")

    monkeypatch.setattr(parallel, "_pool_usable", lambda: True)
    monkeypatch.setattr(parallel.mp, "get_context",
                        lambda method=None: NoForkContext())
    with pytest.warns(RuntimeWarning, match="resource temporarily"):
        records = parallel.run_cells(CELLS, processes=2)
    assert len(records) == 2


@pytest.mark.parametrize("cells,processes", [(CELLS, 1), (CELLS[:1], 2)])
def test_inline_by_request_is_silent(monkeypatch, cells, processes):
    monkeypatch.setattr(parallel, "_pool_usable", lambda: False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = parallel.run_cells(cells, processes=processes)
    assert len(records) == len(cells)
