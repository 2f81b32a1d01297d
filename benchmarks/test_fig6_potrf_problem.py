"""Figure 6: POTRF performance vs matrix size on a fixed node count.

Paper: 64 nodes, 512^2 tiles, matrix size sweep.  Claimed shape: the same
two well-separated groups as Fig. 5, both asymptotically approaching their
peak, with the task-based codes reaching practical peak at *smaller*
matrix sizes than ScaLAPACK/SLATE.
"""

from conftest import run_once

from repro.bench.figures import FIGURES, fig6_potrf_problem
from repro.bench.harness import print_series
from repro.bench.plot import print_chart


def test_fig6_problem_scaling(benchmark, cells):
    series = run_once(benchmark, fig6_potrf_problem, cells=cells)
    fig = FIGURES["fig6"]
    print_series(fig.title, fig.xlabel, list(series.values()))
    print_chart(list(series.values()), ylabel='Gflop/s')
    biggest = series["ttg"].xs[-1]

    # Performance grows with problem size for everyone.
    for s in series.values():
        assert s.monotone_increasing(tol=0.05), s.name

    # Task-based group above the fork-join group at the largest size.
    for tb in ("ttg", "dplasma", "chameleon"):
        for fj in ("slate", "scalapack"):
            assert series[tb].y_at(biggest) > series[fj].y_at(biggest)

    # The separation widens with problem size: the task-based codes climb
    # toward their (higher) practical peak faster than ScaLAPACK climbs
    # toward its own.
    smallest = series["ttg"].xs[0]
    ratio_small = series["ttg"].y_at(smallest) / series["scalapack"].y_at(smallest)
    ratio_big = series["ttg"].y_at(biggest) / series["scalapack"].y_at(biggest)
    assert ratio_big > ratio_small
