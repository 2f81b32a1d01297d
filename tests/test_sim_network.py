"""Tests for the network model."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.network import NetworkModel, NetworkSpec

_settings = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def make(nnodes=4, **kw):
    eng = Engine()
    spec = NetworkSpec(**kw)
    return NetworkModel(spec, nnodes, eng), eng


def test_transfer_time_alpha_beta():
    net, _ = make(latency=1e-6, bandwidth=1e9, eager_threshold=10**6)
    assert net.transfer_time(0) == pytest.approx(1e-6)
    assert net.transfer_time(1000) == pytest.approx(1e-6 + 1000 / 1e9)


def test_rendezvous_adds_handshake():
    net, _ = make(latency=1e-6, bandwidth=1e9, eager_threshold=100)
    small = net.transfer_time(100)
    large = net.transfer_time(101)
    assert large > small + 1.9e-6


def test_send_arrival_after_latency():
    net, eng = make(latency=1e-6, bandwidth=1e9)
    t = net.send(0, 1, 1000)
    assert t == pytest.approx(1e-6 + 1000 / 1e9)


def test_same_node_bypasses_nic():
    net, _ = make()
    t = net.send(2, 2, 10**9)
    # only software overhead, no wire time
    assert t < 1e-5
    assert net.bytes_sent == 0


def test_nic_injection_serializes():
    net, _ = make(latency=1e-6, bandwidth=1e9, eager_threshold=10**9)
    t1 = net.send(0, 1, 10**6)  # 1 ms wire
    t2 = net.send(0, 2, 10**6)  # queued behind the first on node 0's TX
    assert t2 >= t1 + 0.9e-3


def test_different_senders_do_not_serialize():
    net, _ = make(latency=1e-6, bandwidth=1e9, eager_threshold=10**9)
    t1 = net.send(0, 2, 10**6)
    t2 = net.send(1, 3, 10**6)
    assert t2 == pytest.approx(t1)


def test_fifo_per_sender():
    net, _ = make()
    times = [net.send(0, 1, 5000) for _ in range(20)]
    assert times == sorted(times)


def test_rank_out_of_range():
    net, _ = make(nnodes=2)
    with pytest.raises(ValueError):
        net.send(0, 5, 10)
    with pytest.raises(ValueError):
        net.send(-1, 0, 10)


def test_negative_bytes():
    net, _ = make()
    with pytest.raises(ValueError):
        net.send(0, 1, -5)


def test_rma_get_round_trip_cost():
    net, _ = make(latency=1e-6, bandwidth=1e9, eager_threshold=10**9)
    t = net.rma_get(0, 1, 10**6)
    # request (latency) + payload (wire + latency)
    assert t >= 2e-6 + 1e-3


def test_bcast_time_log_scaling():
    net, _ = make(nnodes=64)
    t8 = net.bcast_time(8, 1000)
    t64 = net.bcast_time(64, 1000)
    assert t64 == pytest.approx(2 * t8)
    assert net.bcast_time(1, 1000) == 0.0


def test_barrier_time():
    net, _ = make(nnodes=16)
    assert net.barrier_time(1) == 0.0
    assert net.barrier_time(16) > 0.0


def test_allreduce_twice_bcast():
    net, _ = make(nnodes=8)
    assert net.allreduce_time(8, 500) == pytest.approx(2 * net.bcast_time(8, 500))


def test_backbone_only_for_bulk():
    # Small messages must not queue on the backbone even when it is busy.
    net, _ = make(
        nnodes=4, latency=1e-6, bandwidth=1e9,
        eager_threshold=1000, bisection_per_node=1e6,
    )
    # big transfer from 0 occupies the backbone for a long time
    t_big = net.send(0, 1, 10**6)
    t_small = net.send(2, 3, 100)
    assert t_small < 1e-4  # unaffected by the backbone queue


def test_backbone_serializes_bulk():
    net, _ = make(
        nnodes=4, latency=1e-6, bandwidth=1e12,
        eager_threshold=1000, bisection_per_node=1e6,
    )
    t1 = net.send(0, 1, 10**6)
    t2 = net.send(2, 3, 10**6)  # different NICs, shared backbone
    assert t2 > t1


def test_message_and_byte_counters():
    net, _ = make()
    net.send(0, 1, 100)
    net.send(1, 2, 200)
    net.send(2, 2, 300)  # local: counted as message but not bytes
    assert net.messages_sent == 3
    assert net.bytes_sent == 300


def test_invalid_nnodes():
    eng = Engine()
    with pytest.raises(ValueError):
        NetworkModel(NetworkSpec(), 0, eng)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=30,
    )
)
@_settings
def test_network_arrivals_respect_latency_and_fifo(msgs):
    eng = Engine()
    spec = NetworkSpec(latency=1e-6, bandwidth=1e9)
    net = NetworkModel(spec, 4, eng)
    last_arrival = {}
    for src, dst, nbytes in msgs:
        t = net.send(src, dst, nbytes)
        if src != dst:
            assert t >= spec.latency + nbytes / spec.bandwidth - 1e-15
            key = (src, dst)
            if key in last_arrival:
                # FIFO per channel: arrivals never reorder
                assert t >= last_arrival[key] - 1e-15
            last_arrival[key] = t


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=10**6))
@_settings
def test_collective_durations_monotone_in_ranks(nranks, nbytes):
    eng = Engine()
    net = NetworkModel(NetworkSpec(), 64, eng)
    t1 = net.bcast_time(nranks, nbytes)
    t2 = net.bcast_time(min(64, nranks * 2), nbytes)
    assert t2 >= t1
    assert net.barrier_time(nranks) <= net.barrier_time(min(64, nranks * 2))
