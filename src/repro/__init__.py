"""repro: Python reproduction of TTG (Template Task Graphs), IPDPS 2022.

Layered architecture (bottom-up):

- :mod:`repro.sim` -- deterministic discrete-event cluster simulator.
- :mod:`repro.comm` -- active messages and RMA on the simulator.
- :mod:`repro.serialization` -- trivial/generic/madness/splitmd protocols.
- :mod:`repro.runtime` -- PaRSEC-like and MADNESS-like task runtimes.
- :mod:`repro.core` -- the TTG programming model (the paper's contribution).
- :mod:`repro.linalg` -- tiles, block-cyclic matrices, kernels, generators.
- :mod:`repro.apps` -- Cholesky, FW-APSP, block-sparse GEMM, MRA.
- :mod:`repro.baselines` -- ScaLAPACK/SLATE/DPLASMA/Chameleon/DBCSR/
  MPI+OpenMP/native-MADNESS comparators.
- :mod:`repro.bench` -- harness regenerating every table/figure.

Quickstart::

    from repro import core as ttg
    from repro.sim import Cluster, HAWK
    from repro.runtime import ParsecBackend

    cluster = Cluster(HAWK, nnodes=4)
    backend = ParsecBackend(cluster)
    # ... build a TaskGraph, bind, invoke, fence.
"""

__version__ = "0.1.0"
