"""Tests for the communication layer: AMs and RMA windows."""

import numpy as np
import pytest

from repro.comm.endpoint import CommEngine
from repro.comm.rma import RmaError, RmaWindow
from repro.sim.cluster import Cluster, HAWK


def make_comm(nnodes=4, **kw):
    cluster = Cluster(HAWK, nnodes)
    return CommEngine(cluster, **kw), cluster


def test_am_delivers_with_args():
    comm, cluster = make_comm()
    got = []
    comm.send_am(0, 1, 100, lambda a, b: got.append((a, b)), "x", 2)
    cluster.engine.run()
    assert got == [("x", 2)]


def test_am_charges_network_time():
    comm, cluster = make_comm()
    comm.send_am(0, 1, 10**6, lambda: None)
    cluster.engine.run()
    assert cluster.engine.now >= 10**6 / HAWK.network.bandwidth


def test_am_server_serializes():
    base = HAWK.network.am_overhead
    comm, cluster = make_comm(am_cost_per_byte=1.0e-3 / 64)
    times = []
    for _ in range(3):
        comm.send_am(0, 1, 64, lambda: times.append(cluster.engine.now))
    cluster.engine.run()
    # Each message occupies the AM server for 1 ms.
    assert times[1] - times[0] >= 0.9e-3
    assert times[2] - times[1] >= 0.9e-3


def test_extra_server_time():
    comm, cluster = make_comm()
    times = []
    comm.send_am(0, 1, 64, lambda: times.append(cluster.engine.now),
                 extra_server_time=5e-3)
    comm.send_am(0, 1, 64, lambda: times.append(cluster.engine.now))
    cluster.engine.run()
    # Both handlers run only after the 5 ms unpack occupied the server;
    # the second is queued behind the first.
    assert times[0] >= 5e-3
    assert times[1] >= times[0]


def test_am_counters():
    comm, cluster = make_comm()
    comm.send_am(0, 1, 500, lambda: None)
    comm.send_am(1, 2, 700, lambda: None)
    cluster.engine.run()
    assert comm.am_count == 2
    assert comm.am_bytes == 1200


def test_am_fifo_same_channel():
    comm, cluster = make_comm()
    order = []
    for i in range(10):
        comm.send_am(0, 1, 64 + i, lambda i=i: order.append(i))
    cluster.engine.run()
    assert order == list(range(10))


def test_rma_get_bypasses_am_server():
    comm, cluster = make_comm(am_cost_per_byte=1.0)  # very slow AMs
    done = []
    comm.rma_get(0, 1, 10**4, lambda: done.append(cluster.engine.now))
    cluster.engine.run()
    assert done and done[0] < 0.1  # did not pay the 1 s AM cost


def test_rma_counters():
    comm, cluster = make_comm()
    comm.rma_get(0, 1, 2048, lambda: None)
    cluster.engine.run()
    assert comm.rma_count == 1 and comm.rma_bytes == 2048


# ------------------------------------------------------------------- RMA


def test_window_register_get_release():
    comm, cluster = make_comm()
    win = RmaWindow(comm)
    payload = np.arange(10.0)
    h = win.register(1, payload, payload.nbytes)
    assert win.is_registered(h)
    got = []
    win.get(0, h, lambda data: got.append(data))
    cluster.engine.run()
    assert np.array_equal(got[0], payload)
    got[0][0] = 99.0  # the fetched copy is private
    assert payload[0] == 0.0
    win.release(h)
    assert not win.is_registered(h)


def test_window_get_unknown_handle():
    comm, _ = make_comm()
    win = RmaWindow(comm)
    with pytest.raises(RmaError):
        win.get(0, 42, lambda d: None)


def test_window_double_release():
    comm, _ = make_comm()
    win = RmaWindow(comm)
    h = win.register(0, None, 100)
    win.release(h)
    with pytest.raises(RmaError):
        win.release(h)


def test_window_synthetic_payload():
    comm, cluster = make_comm()
    win = RmaWindow(comm)
    h = win.register(1, None, 4096)
    got = []
    win.get(0, h, lambda data: got.append(data))
    cluster.engine.run()
    assert got == [None]
