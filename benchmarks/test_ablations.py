"""Ablations of the features the paper introduces (Section II).

Each ablation isolates one mechanism on a workload where the paper says it
matters, and asserts the direction of the effect:

- optimized vs naive ``ttg::broadcast`` (payload dedup per rank);
- splitmd vs generic serialization (copy avoidance + RMA);
- per-template priority maps on/off (critical-path scheduling);
- MCA scheduler policy (priority vs fifo/lifo);
- the BSPMM coordinator window (feedback loop focusing the scheduler).
"""

from conftest import run_once

from repro.apps.bspmm import bspmm_ttg
from repro.apps.cholesky import cholesky_ttg
from repro.apps.floydwarshall import floyd_warshall_ttg
from repro.bench.harness import print_table
from repro.linalg import BlockCyclicDistribution, TiledMatrix, yukawa_blocksparse
from repro.runtime.base import BackendConfig
from repro.runtime.parsec import ParsecBackend
from repro.sim.cluster import Cluster, HAWK

MACHINE = HAWK.with_workers(8)
NODES = 8


def _cholesky(config=None, priorities=True, n=8192, b=256):
    a = TiledMatrix(n, b, BlockCyclicDistribution.for_ranks(NODES), synthetic=True)
    backend = ParsecBackend(Cluster(MACHINE, NODES), config=config)
    res = cholesky_ttg(a, backend, priorities=priorities)
    return res, backend


def _fw(config=None, n=2048, b=64):
    w = TiledMatrix(n, b, BlockCyclicDistribution.for_ranks(NODES), synthetic=True)
    backend = ParsecBackend(Cluster(MACHINE, NODES), config=config)
    return floyd_warshall_ttg(w, backend), backend


def test_ablation_broadcast(benchmark):
    """Optimized broadcast avoids repeated transfers of the same data."""

    def run():
        opt, be_o = _fw()
        naive, be_n = _fw(BackendConfig(broadcast="naive"))
        return opt, be_o, naive, be_n

    opt, be_o, naive, be_n = run_once(benchmark, run)
    print_table(
        "Ablation: broadcast implementation (FW, 8 nodes)",
        ["variant", "Gflop/s", "remote MB", "payloads"],
        [
            ["optimized", f"{opt.gflops:.1f}",
             f"{be_o.stats.remote_bytes/1e6:.1f}",
             be_o.stats.broadcast_payloads_sent],
            ["naive", f"{naive.gflops:.1f}",
             f"{be_n.stats.remote_bytes/1e6:.1f}",
             be_n.stats.broadcast_payloads_sent],
        ],
    )
    # Same answer-shape, strictly less data on the wire and faster.
    assert be_o.stats.remote_bytes < 0.7 * be_n.stats.remote_bytes
    assert opt.gflops > naive.gflops


def test_ablation_serialization(benchmark):
    """splitmd removes the pack/unpack copies of generic serialization."""

    def run():
        smd, be_s = _cholesky()
        gen, be_g = _cholesky(
            BackendConfig(serialization_allowed=("trivial", "generic"),
                          supports_splitmd=False)
        )
        return smd, be_s, gen, be_g

    smd, be_s, gen, be_g = run_once(benchmark, run)
    print_table(
        "Ablation: serialization protocol (POTRF, 8 nodes)",
        ["variant", "Gflop/s", "copies MB", "RMA MB"],
        [
            ["splitmd", f"{smd.gflops:.1f}",
             f"{be_s.stats.copy_bytes/1e6:.1f}",
             f"{be_s.stats.rma_bytes/1e6:.1f}"],
            ["generic", f"{gen.gflops:.1f}",
             f"{be_g.stats.copy_bytes/1e6:.1f}", "0.0"],
        ],
    )
    assert be_s.stats.rma_bytes > 0
    assert be_s.stats.copy_bytes < 0.2 * be_g.stats.copy_bytes
    assert smd.gflops >= 0.95 * gen.gflops  # never worse, usually better


def test_ablation_priorities(benchmark):
    """Priority maps keep the critical path (POTRF chain) moving."""

    def run():
        on, _ = _cholesky(priorities=True)
        off, _ = _cholesky(priorities=False)
        return on, off

    on, off = run_once(benchmark, run)
    print_table(
        "Ablation: per-template priority maps (POTRF, 8 nodes)",
        ["variant", "Gflop/s"],
        [["priomaps on", f"{on.gflops:.1f}"], ["priomaps off", f"{off.gflops:.1f}"]],
    )
    assert on.gflops >= 0.98 * off.gflops  # never meaningfully worse


def test_ablation_scheduler(benchmark):
    """MCA scheduler module choice (priorities need the priority queue)."""

    def run():
        out = {}
        for policy in ("priority", "lifo", "fifo"):
            res, _ = _cholesky(BackendConfig(scheduler=policy))
            out[policy] = res.gflops
        return out

    out = run_once(benchmark, run)
    print_table(
        "Ablation: MCA scheduler policy (POTRF, 8 nodes)",
        ["policy", "Gflop/s"],
        [[k, f"{v:.1f}"] for k, v in out.items()],
    )
    assert out["priority"] >= 0.95 * max(out.values())


def test_ablation_coordinator_window(benchmark):
    """The BSPMM coordinator loop trades scheduler freedom for focus; at
    this scale the effect is small but the default window must be near the
    best setting and no window may collapse throughput."""
    a = yukawa_blocksparse(120, target_tile=64, decay_length=2.5, seed=5,
                           synthetic=True)

    def run():
        out = {}
        for window in (1, 2, 8):
            backend = ParsecBackend(Cluster(MACHINE, NODES))
            out[window] = bspmm_ttg(a, a, backend, window=window).gflops
        return out

    out = run_once(benchmark, run)
    print_table(
        "Ablation: BSPMM coordinator window (8 nodes)",
        ["window", "Gflop/s"],
        [[k, f"{v:.1f}"] for k, v in out.items()],
    )
    best = max(out.values())
    assert out[2] >= 0.98 * best          # the default is a good choice
    assert min(out.values()) >= 0.8 * best  # no setting collapses


def test_ablation_variant_left_vs_right_looking(benchmark):
    """Graph transformability: the left-looking TTG (streaming
    accumulators) computes the same factorization; the right-looking
    variant exposes more lookahead parallelism and should win or tie."""
    from repro.apps.cholesky import cholesky_left_looking

    def run():
        a1 = TiledMatrix(8192, 256, BlockCyclicDistribution.for_ranks(NODES),
                         synthetic=True)
        right = cholesky_ttg(a1, ParsecBackend(Cluster(MACHINE, NODES))).gflops
        a2 = TiledMatrix(8192, 256, BlockCyclicDistribution.for_ranks(NODES),
                         synthetic=True)
        left = cholesky_left_looking(
            a2, ParsecBackend(Cluster(MACHINE, NODES))
        ).gflops
        return {"right-looking": right, "left-looking": left}

    out = run_once(benchmark, run)
    print_table(
        "Ablation: Cholesky dataflow variant (8 nodes)",
        ["variant", "Gflop/s"],
        [[k, f"{v:.1f}"] for k, v in out.items()],
    )
    assert out["right-looking"] >= 0.95 * out["left-looking"]
    assert out["left-looking"] > 0.5 * out["right-looking"]
