"""Figure 5: weak scaling of POTRF on Hawk.

Paper: each node holds a 30k^2 submatrix, 512^2 tiles; series ScaLAPACK,
SLATE, Chameleon, DPLASMA, TTG.  Claimed shape: a clear separation between
two groups -- the task-based codes (TTG, DPLASMA, Chameleon) grow fast and
close together; ScaLAPACK and SLATE "steadily continue to grow their
performance but at a slower pace" (no lookahead).
"""

from conftest import run_once

from repro.bench.figures import FIGURES, fig5_potrf_weak
from repro.bench.harness import print_series
from repro.bench.plot import print_chart


def test_fig5_weak_scaling(benchmark, cells):
    series = run_once(benchmark, fig5_potrf_weak, cells=cells)
    fig = FIGURES["fig5"]
    print_series(fig.title, fig.xlabel, list(series.values()))
    print_chart(list(series.values()), ylabel='Gflop/s')
    ttg = series["ttg"]
    top = ttg.xs[-1]

    # Every implementation's absolute performance grows under weak scaling.
    for s in series.values():
        assert s.monotone_increasing(tol=0.05), s.name

    # Two separated groups at the largest node count.
    task_based = [series[n].y_at(top) for n in ("ttg", "dplasma", "chameleon")]
    fork_join = [series[n].y_at(top) for n in ("slate", "scalapack")]
    assert min(task_based) > max(fork_join), (task_based, fork_join)

    # ScaLAPACK clearly trails TTG (paper: by ~2-3x at scale).
    assert ttg.y_at(top) > 1.5 * series["scalapack"].y_at(top)

    # The task-based group stays tight (same DAG, similar substrates).
    assert max(task_based) < 1.3 * min(task_based)
