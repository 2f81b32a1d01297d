"""Shared benchmark plumbing.

Every benchmark regenerates one table or figure of the paper: it runs the
full experiment once (timed by pytest-benchmark), prints the same rows /
series the paper reports, and asserts the paper's qualitative claims (who
wins, by roughly what factor, where curves roll off).

Scale via ``REPRO_BENCH_SCALE=small|large`` (default small).
"""

import pytest


@pytest.fixture(scope="session")
def cells():
    """One cell memo for the suite: a cell two figures share runs (and is
    timed) once."""
    return {}


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once (experiments are deterministic; repeated
    rounds would just re-run identical virtual-time simulations)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
