"""Per-layer micro-benchmarks: each times calls into one layer's public API.

Layer = ``src/repro/<module>``.  These numbers are informational (no
bound): they exist so that a change to one layer can name the number it
should move, and README.md maps each to the end-to-end metric and workload
it is expected to move.  Every function does a fixed, deterministic amount
of work and returns one float.
"""

from __future__ import annotations

import gc
import statistics
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import core as ttg
from repro.apps.cholesky import cholesky_ttg
from repro.bench.history import SeededBlockCyclic
from repro.comm import CommEngine
from repro.linalg import TiledMatrix, kernels
from repro.linalg.tile import MatrixTile
from repro.runtime import ParsecBackend, get_scheduler
from repro.serialization import PROTOCOLS, SplitMetadataProtocol, select_protocol
from repro.sim import ENGINE_KINDS, Cluster, Engine, NetworkModel
from repro.telemetry import EventBus, MetricsRegistry, Telemetry, critical_path, idle_breakdown
from repro.telemetry.events import TID_AM

from workloads import MACHINE, NRANKS, fallback_reasons

#: Engine kinds the benchmark names a metric for.  A kind that a later
#: change removes from ``repro.sim.ENGINE_KINDS`` reports 0.
ENGINE_KIND_METRICS = ("seq", "sharded", "mp")


def noop(*_args: Any) -> None:
    pass


def timed(fn: Callable[[], Any]) -> float:
    gc.collect()
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


#: A micro-benchmark builder: ``n`` -> (operations it will do, the call to time).
Builder = Callable[[int], Tuple[int, Callable[[], Any]]]


def rate(build: Builder, n: int, repeats: int) -> float:
    """Median operations per second over ``repeats`` freshly built runs."""
    def once() -> float:
        ops, run = build(n)
        return ops / timed(run)

    return statistics.median(once() for _ in range(repeats))


# -------------------------------------------------------------------- sim


def engine_events(n: int) -> Tuple[int, Callable[[], Any]]:
    """``n`` self-rescheduling callbacks, about a thousand pending."""
    eng = Engine()
    in_flight = min(1000, n)
    left = [n - in_flight]

    def tick() -> None:
        if left[0] > 0:
            left[0] -= 1
            eng.schedule(1.0e-6, tick)

    for i in range(in_flight):
        eng.schedule(i * 1.0e-9, tick)
    return n, eng.run


def engine_batches(n: int, burst: int = 16) -> Tuple[int, Callable[[], Any]]:
    """The same storm pushed as ``schedule_batch`` bursts of ``burst``."""
    eng = Engine()
    in_flight = min(64, n // burst)
    left = [n // burst - in_flight]

    def last() -> None:
        if left[0] > 0:
            left[0] -= 1
            eng.schedule_batch(1.0e-6, calls)

    calls = [(noop, ())] * (burst - 1) + [(last, ())]
    for _ in range(in_flight):
        eng.schedule_batch(0.0, calls)
    return n // burst * burst, eng.run


def network_sends(nbytes: int, n: int) -> Tuple[int, Callable[[], Any]]:
    net = NetworkModel(MACHINE.network, NRANKS, Engine())

    def run() -> None:
        send = net.send
        for i in range(n):
            send(i % NRANKS, (i * 7 + 1) % NRANKS, nbytes)

    return n, run


def potrf_cell(seed: int, n: int, cluster: Cluster,
               telemetry: Optional[Telemetry] = None) -> Tuple[float, ParsecBackend]:
    """Host seconds of one synthetic POTRF cell on ``cluster``."""
    a = TiledMatrix(n, 128, SeededBlockCyclic.for_ranks(NRANKS, seed), synthetic=True)
    backend = ParsecBackend(cluster, telemetry=telemetry)
    return timed(lambda: cholesky_ttg(a, backend)), backend


def engine_kind_cells(seed: int, n: int) -> Tuple[Dict[str, float], int, List[str]]:
    """One POTRF cell per engine kind -> (host seconds, cells run, failures);
    a fallback is a failure, not a time."""
    seconds, failures = dict.fromkeys(ENGINE_KIND_METRICS, 0.0), []
    kinds = [k for k in ENGINE_KIND_METRICS if k in ENGINE_KINDS]
    for kind in kinds:
        host, backend = potrf_cell(seed, n, Cluster.with_engine(MACHINE, NRANKS, kind))
        reasons = fallback_reasons([backend])
        failures += [f"engine {kind} fell back: {r}" for r in reasons]
        if not reasons:
            seconds[kind] = host
    return seconds, len(kinds), failures


# --------------------------------------------------------- core + runtime


def run_graph(tts: List[Any], nranks: int, seeds: List[Tuple[Any, Any]],
              prepare: Callable[[Any], None] = noop) -> Callable[[], Any]:
    ex = ttg.TaskGraph(tts).executable(ParsecBackend(Cluster(MACHINE, nranks)))
    prepare(ex)

    def run() -> None:
        for tt, key in seeds:
            ex.invoke(tt, key)
        ex.fence()

    return run


def noop_chain(n: int) -> Tuple[int, Callable[[], Any]]:
    """One rank, a self-chain of ``n`` keys with an empty zero-cost body."""
    edge = ttg.Edge("chain", key_type=int, value_type=int)

    def body(key: int, value: int, outs: Any) -> None:
        if key < n:
            outs.send(0, key + 1, value)

    def start(key: int, outs: Any) -> None:
        outs.send(0, 1, 0)

    chain = ttg.make_tt(body, [edge], [edge], name="CHAIN", keymap=lambda k: 0)
    init = ttg.make_tt(start, [], [edge], name="START", keymap=lambda k: 0)
    return n, run_graph([init, chain], 1, [(init, 0)])


def noop_join(n: int) -> Tuple[int, Callable[[], Any]]:
    """``n`` two-input joins over 16 ranks, both inputs fed by broadcasts."""
    left = ttg.Edge("left", key_type=int, value_type=int)
    right = ttg.Edge("right", key_type=int, value_type=int)
    per_source = n // NRANKS

    def source(key: int, outs: Any) -> None:
        keys = range(key * per_source, (key + 1) * per_source)
        outs.broadcast(0, keys, 1)
        outs.broadcast(1, keys, 2)

    src = ttg.make_tt(source, [], [left, right], name="SRC", keymap=lambda k: k)
    join = ttg.make_tt(noop, [left, right], [], name="JOIN", keymap=lambda k: k % NRANKS)
    return per_source * NRANKS, run_graph([src, join], NRANKS, [(src, r) for r in range(NRANKS)])


def stream_messages(n: int, per_key: int = 64) -> Tuple[int, Callable[[], Any]]:
    """``n`` messages into a reducer terminal, ``per_key`` per key, each
    stream sized with ``set_argstream_size``."""
    keys = n // per_key
    edge = ttg.Edge("stream", key_type=int, value_type=int)

    def source(key: int, outs: Any) -> None:
        for _ in range(per_key):
            outs.send(0, key, 1)

    src = ttg.make_tt(source, [], [edge], name="SRC", keymap=lambda k: k % NRANKS)
    red = ttg.make_tt(noop, [edge], [], name="REDUCE", keymap=lambda k: k % NRANKS)
    red.set_input_reducer(0, lambda a, b: a + b)

    def size_streams(ex: Any) -> None:
        for key in range(keys):
            ex.set_argstream_size(red, 0, key, per_key)

    return keys * per_key, run_graph(
        [src, red], NRANKS, [(src, k) for k in range(keys)], size_streams)


def scheduler_ops(name: str, n: int) -> Tuple[int, Callable[[], Any]]:
    queue = get_scheduler(name)

    def run() -> None:
        for i in range(n // 2):
            queue.push(i, i * 7919 % 1000)
        for _ in range(n // 2):
            queue.pop()

    return n // 2 * 2, run


# ------------------------------------------------------------------- comm


def comm_ops(kind: str, n: int) -> Tuple[int, Callable[[], Any]]:
    comm = CommEngine(Cluster(MACHINE, NRANKS))

    def run() -> None:
        for i in range(n):
            src, dst = i % NRANKS, (i * 7 + 1) % NRANKS
            if kind == "am":
                comm.send_am(src, dst, 0, noop)
            else:
                comm.rma_get(src, dst, 128 * 1024, noop)
        comm.engine.run()

    return n, run


# ---------------------------------------------------------- serialization


class PlainObject:
    def __init__(self) -> None:
        self.a, self.b = 1, "two"


def protocol_select(n: int) -> Tuple[int, Callable[[], Any]]:
    values = [MatrixTile.synthetic(128, 128), 3.25, (1, 2, 3), np.zeros(64), PlainObject()]

    def run() -> None:
        for i in range(n):
            select_protocol(values[i % len(values)], backend_supports_splitmd=True)

    return n, run


def protocol_roundtrip(name: str, value: Any, n: int) -> Tuple[int, Callable[[], Any]]:
    proto = SplitMetadataProtocol() if name == "splitmd" else PROTOCOLS[name]

    def run() -> None:
        for _ in range(n):
            proto.deserialize(proto.serialize(value))

    return n, run


# ----------------------------------------------------------------- linalg


def kernel_gflops(b: int = 256, n: int = 8) -> Dict[str, float]:
    """Achieved Gflop/s of each tile kernel on real ``b`` x ``b`` tiles."""
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((b, b))
    spd = dense @ dense.T / b + np.eye(b)
    lower = np.linalg.cholesky(spd)

    def tiles(data: np.ndarray) -> List[MatrixTile]:
        return [MatrixTile(b, b, data.copy()) for _ in range(n)]

    l_tile, a_tile = MatrixTile(b, b, lower), MatrixTile(b, b, dense)
    cases = {
        "potrf": (kernels.potrf_flops(b), lambda t: kernels.potrf(t), tiles(spd)),
        "trsm": (kernels.trsm_flops(b), lambda t: kernels.trsm(l_tile, t), tiles(dense)),
        "syrk": (kernels.syrk_flops(b), lambda t: kernels.syrk(a_tile, t), tiles(spd)),
        "gemm": (kernels.gemm_flops(b, b, b),
                 lambda t: kernels.gemm(a_tile, a_tile, t), tiles(dense)),
        # the min-plus kernel materialises a b^3 temporary: two calls do
        "fw_kernel": (kernels.fw_flops(b),
                      lambda t: kernels.fw_kernel(a_tile, a_tile, t), tiles(dense)[:3]),
    }
    out = {}
    for name, (flops, kernel, outputs) in cases.items():
        kernel(outputs.pop())  # untimed: first-touch of temporaries, lazy BLAS set-up
        seconds = timed(lambda: [kernel(t) for t in outputs])
        out[name] = flops * len(outputs) / seconds / 1.0e9
    return out


# -------------------------------------------------------------- telemetry


def span_events(n: int) -> Tuple[int, Callable[[], Any]]:
    bus = EventBus(nranks=NRANKS, capacity=None)

    def run() -> None:
        for i in range(n):
            bus.complete("am:data", i % NRANKS, TID_AM, 0.0, 1.0, cat="comm",
                         args={"src": 0, "nbytes": 64})

    return n, run


def metric_observations(kind: str, n: int) -> Tuple[int, Callable[[], Any]]:
    """Labelled handle look-up plus one observation, as the hooks do it."""
    registry = MetricsRegistry()

    def run() -> None:
        for i in range(n):
            if kind == "counter":
                registry.counter("am", dst=i % NRANKS).inc()
            else:
                registry.histogram("am_latency", dst=i % NRANKS).observe(1.0e-6)

    return n, run


def telemetry_tax(seed: int, n: int) -> Dict[str, float]:
    """Observed / metrics-only / off host time of one POTRF cell, and the
    time to analyse the observed recording."""

    def host(telemetry: Optional[Telemetry]) -> float:
        return potrf_cell(seed, n, Cluster(MACHINE, NRANKS), telemetry)[0]

    recording = Telemetry(nranks=NRANKS, capacity=None)
    off, observed = host(None), host(recording)
    metrics_only = host(Telemetry(nranks=NRANKS, events=False))
    analyze = timed(lambda: (critical_path(recording), idle_breakdown(recording)))
    return {
        "telemetry.tax": observed / off,
        "telemetry.metrics_only_tax": metrics_only / off,
        "telemetry.analyze_s": analyze,
    }


# ------------------------------------------------------------------ suite

_TILE = MatrixTile(64, 64, np.ones((64, 64)))
_BULK = np.ones((128, 128))  # 128 KiB

#: metric -> (builder, operations at full scale, fresh repeats)
RATES: Dict[str, Tuple[Builder, int, int]] = {
    "sim.engine.events_per_s": (engine_events, 100_000, 3),
    "sim.engine.batch_events_per_s": (engine_batches, 100_000, 3),
    "sim.network.sends_per_s.8B": (partial(network_sends, 8), 50_000, 3),
    "sim.network.sends_per_s.128KiB": (partial(network_sends, 128 * 1024), 50_000, 3),
    "runtime.noop_tasks_per_s.chain": (noop_chain, 20_000, 1),
    "runtime.noop_tasks_per_s.join": (noop_join, 16_000, 1),
    "core.stream_msgs_per_s": (stream_messages, 32_000, 1),
    "runtime.scheduler_ops_per_s.lifo": (partial(scheduler_ops, "lifo"), 200_000, 3),
    "runtime.scheduler_ops_per_s.fifo": (partial(scheduler_ops, "fifo"), 200_000, 3),
    "runtime.scheduler_ops_per_s.priority": (partial(scheduler_ops, "priority"), 50_000, 3),
    "comm.am_per_s": (partial(comm_ops, "am"), 20_000, 3),
    "comm.rma_get_per_s": (partial(comm_ops, "rma"), 20_000, 3),
    "serialization.select_per_s": (protocol_select, 5_000, 3),
    "serialization.roundtrip_per_s.splitmd": (partial(protocol_roundtrip, "splitmd", _TILE), 3_000, 3),
    "serialization.roundtrip_per_s.trivial": (partial(protocol_roundtrip, "trivial", (1, 2, 3)), 10_000, 3),
    "serialization.roundtrip_per_s.generic": (partial(protocol_roundtrip, "generic", _TILE), 3_000, 3),
    "serialization.roundtrip_per_s.madness": (partial(protocol_roundtrip, "madness", _TILE), 3_000, 3),
    "serialization.generic_mb_per_s": (partial(protocol_roundtrip, "generic", _BULK), 1_000, 3),
    "telemetry.span_events_per_s": (span_events, 30_000, 3),
    "telemetry.counter_obs_per_s": (partial(metric_observations, "counter"), 50_000, 3),
    "telemetry.histogram_obs_per_s": (partial(metric_observations, "histogram"), 50_000, 3),
}


def run_layers(seed: int, quick: bool) -> Tuple[Dict[str, float], int, List[str]]:
    """Every workload-independent per-layer metric, how many verified
    operations (engine-kind cells) that took, and which of them failed."""
    shrink = 20 if quick else 1  # quick: the same code paths on a twentieth of the work
    m = {name: rate(build, n // shrink, repeats) for name, (build, n, repeats) in RATES.items()}
    m["serialization.generic_mb_per_s"] *= _BULK.nbytes / 1.0e6
    for name, gflops in kernel_gflops(64 if quick else 256).items():
        m[f"linalg.kernel_gflops.{name}"] = gflops
    cell_n = 1024 if quick else 4096
    m.update(telemetry_tax(seed, cell_n))
    seconds, attempted, failures = engine_kind_cells(seed, cell_n)
    for kind, host in seconds.items():
        m[f"sim.engine.cell_host_s.{kind}"] = host
    return m, attempted, failures
