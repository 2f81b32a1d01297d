"""Fault-injection harness and the pool's retry/backoff resilience."""

import pytest

from repro.bench.parallel import (
    CellFailure,
    CellFailureError,
    run_cells,
)
from repro.durability import FaultPlan, InjectedFault, chaos

MRA_CELL = {"app": "mra", "seed": 0, "engine": "seq", "nodes": 2,
            "nfuncs": 2, "k": 4, "workers": 2}


# -------------------------------------------------------------- fault plans


def test_fault_plan_validates_kind_site_nth():
    with pytest.raises(ValueError, match="kind"):
        FaultPlan(kind="meteor")
    with pytest.raises(ValueError, match="site"):
        FaultPlan(site="nowhere")
    with pytest.raises(ValueError, match="site"):
        FaultPlan(site="heartbeat")  # the deleted engine heartbeat
    with pytest.raises(ValueError, match="nth"):
        FaultPlan(nth=0)


def test_injected_fault_is_not_a_plain_exception():
    # Like KeyboardInterrupt: no runtime layer may swallow it.
    assert issubclass(InjectedFault, BaseException)
    assert not issubclass(InjectedFault, Exception)


def test_poke_without_plan_is_a_noop():
    assert chaos.active() is None
    chaos.poke("checkpoint", index=0)  # must not raise


def test_inject_fires_on_nth_poke_only():
    with chaos.inject(FaultPlan(site="checkpoint", nth=3)):
        chaos.poke("checkpoint")
        chaos.poke("cell")  # other sites never count
        chaos.poke("checkpoint")
        with pytest.raises(InjectedFault):
            chaos.poke("checkpoint")
        chaos.poke("checkpoint")  # fired once; disarmed afterwards
    assert chaos.active() is None


def test_inject_phase_and_match_filters():
    with chaos.inject(FaultPlan(site="phase", nth=1, phase="drain")):
        chaos.poke("phase", phase="build")
        chaos.poke("phase", phase="execute")
        with pytest.raises(InjectedFault):
            chaos.poke("phase", phase="drain")
    with chaos.inject(FaultPlan(site="cell", nth=1,
                                match={"app": "mra", "seed": 1})):
        chaos.poke("cell", app="mra", seed=0)
        chaos.poke("cell", app="potrf", seed=1)
        with pytest.raises(InjectedFault):
            chaos.poke("cell", app="mra", seed=1)


def test_inject_nests_and_restores():
    outer = FaultPlan(site="checkpoint", nth=99)
    inner = FaultPlan(site="cell", nth=99)
    with chaos.inject(outer):
        assert chaos.active() is outer
        with chaos.inject(inner):
            assert chaos.active() is inner
        assert chaos.active() is outer
    assert chaos.active() is None


def test_latch_fires_once_across_arms(tmp_path):
    """The latch models 'the fault already happened' across processes
    and retries: a second armed plan sharing the latch never fires."""
    latch = str(tmp_path / "fired")
    plan = FaultPlan(site="cell", nth=1, latch=latch)
    with chaos.inject(plan):
        with pytest.raises(InjectedFault):
            chaos.poke("cell")
    with chaos.inject(FaultPlan(site="cell", nth=1, latch=latch)):
        chaos.poke("cell")  # latch exists: the crash already happened


# ----------------------------------------------------------- retry/backoff


def test_run_cells_retries_latched_fault_to_success(tmp_path):
    """A cell that crashes once (latched) succeeds on its inline retry,
    and the retry says so with one warning naming the cell."""
    latch = str(tmp_path / "fired")
    plan = FaultPlan(site="cell", nth=1, match={"app": "mra"}, latch=latch)
    with chaos.inject(plan), pytest.warns(RuntimeWarning) as caught:
        records = run_cells([dict(MRA_CELL)], processes=1, backoff=0.0)
    assert len(records) == 1
    assert records[0].tasks_total > 0
    assert len(caught) == 1
    assert "retrying mra-seed0-seq after attempt 1: InjectedFault" \
        in str(caught[0].message)


def test_run_cells_matches_control_after_retry(tmp_path):
    control = run_cells([dict(MRA_CELL)], processes=1)
    latch = str(tmp_path / "fired")
    with chaos.inject(FaultPlan(site="cell", nth=1, latch=latch)), \
            pytest.warns(RuntimeWarning, match="retrying mra-seed0-seq"):
        retried = run_cells([dict(MRA_CELL)], processes=1, backoff=0.0)
    assert retried[0].makespan == control[0].makespan
    assert retried[0].tasks_total == control[0].tasks_total


def test_run_cells_exhausted_retries_raise_cell_failure():
    # an unknown app fails deterministically on every attempt
    bad = {"app": "no-such-app", "seed": 0}
    with pytest.raises(CellFailureError) as exc, \
            pytest.warns(RuntimeWarning) as caught:
        run_cells([bad, dict(MRA_CELL)], processes=1, retries=2, backoff=0.0)
    failures = exc.value.failures
    assert len(failures) == 1
    assert failures[0].attempts == 3  # retries + 1
    assert "no-such-app" in failures[0].error
    # one warning per retry, each naming the cell, the attempt and the error
    assert [str(w.message) for w in caught] == [
        f"run_cells: retrying no-such-app-seed0-seq after attempt {n}: "
        f"{failures[0].error}" for n in (1, 2)]


def test_cell_failure_describe_names_the_cell():
    f = CellFailure({"app": "mra", "seed": 3, "engine": "sharded"},
                    attempts=3, error="InjectedFault: boom")
    text = f.describe()
    assert "mra-seed3-sharded" in text and "3 attempt(s)" in text


def test_watchdog_cli_exits_one_on_permanent_failure(tmp_path, monkeypatch):
    """Satellite: permanent cell failures surface as the watchdog's exit
    code, not a half-measured matrix."""
    import repro.bench.history as history
    from repro.bench.__main__ import main as bench_main

    def _boom(**kwargs):
        raise CellFailureError([CellFailure(
            {"app": "mra", "seed": 0}, attempts=3, error="killed")])

    monkeypatch.setattr(history, "run_watchdog", _boom)
    code = bench_main(["--record-history", "--history-dir", str(tmp_path)])
    assert code == 1
