#!/usr/bin/env python
"""A Parameterized Task Graph (PTG) on top of TTG.

The paper names the PTG model (PaRSEC's JDF, as used by DPLASMA) as TTG's
most direct influence; `repro.core.ptg` shows that a PTG is simply a TTG
whose successor sets are declared up front.  This example runs the
canonical PTG workload -- a 2-D wavefront (each cell needs its north and
west neighbours) -- and profiles the execution.

Run: python examples/ptg_wavefront.py
"""

from repro.core.ptg import PTG, Flow, TaskClass
from repro.runtime import ParsecBackend
from repro.sim import Cluster, HAWK
from repro.telemetry import Telemetry, analyze


def main() -> None:
    n = 12
    grid = {}

    def dests(key):
        i, j = key
        out = []
        if i + 1 < n:
            out.append(("CELL", (i + 1, j), "north"))
        if j + 1 < n:
            out.append(("CELL", (i, j + 1), "west"))
        return out

    def cell_kernel(key, data):
        value = data["north"] + data["west"] + 1
        grid[key] = value
        data["north"] = value  # the north-flow forwards the new value
        data["west"] = value

    cell = TaskClass(
        "CELL",
        kernel=cell_kernel,
        flows=[Flow("north", dests=dests, mode="move"),
               Flow("west", mode="move")],
        keymap=lambda key: (key[0] + key[1]) % 4,
        priomap=lambda key: -(key[0] + key[1]),  # wavefront order
        cost=lambda key, *a: 1.0e6,
    )

    tel = Telemetry(nranks=4, capacity=None)
    ptg = PTG([cell])
    ex = ptg.executable(ParsecBackend(Cluster(HAWK, 4), telemetry=tel))
    # Boundary injection: row 0 needs its "north", column 0 its "west".
    for j in range(n):
        ptg.inject(ex, "CELL", "north", (0, j), 0)
    for i in range(n):
        ptg.inject(ex, "CELL", "west", (i, 0), 0)
    ex.fence()

    # verify against the closed form: grid[i][j] = C(i+j+2, i+1) - 1
    import math

    for (i, j), v in grid.items():
        expect = math.comb(i + j + 2, i + 1) - 1
        assert v == expect, ((i, j), v, expect)
    print(f"wavefront {n}x{n}: corner value {grid[(n-1, n-1)]}")
    print()
    print(analyze.report(tel))
    print("OK")


if __name__ == "__main__":
    main()
