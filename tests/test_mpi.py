"""Tests for the MPI-like layer: CommWorld, p2p matching, ping-pong."""

import numpy as np
import pytest

from repro.hardware import Cluster, HENRI
from repro.mpi import CommWorld, P2PContext, PingPong
from repro.mpi.pingpong import BANDWIDTH_SIZE, LATENCY_SIZE


@pytest.fixture
def world():
    return CommWorld(Cluster(HENRI, 2), comm_placement="near")


# -- CommWorld ----------------------------------------------------------

def test_comm_core_placement_near_vs_far():
    cluster = Cluster(HENRI, 2)
    near = CommWorld(cluster, comm_placement="near")
    m = cluster.machine(0)
    assert near.rank(0).comm_core == m.last_core_of_numa(m.nic_numa.id).id

    cluster2 = Cluster(HENRI, 2)
    far = CommWorld(cluster2, comm_placement="far")
    core = far.rank(0).comm_core
    assert cluster2.machine(0).cores[core].socket_id != \
        cluster2.machine(0).nic_numa.socket_id


def test_comm_placement_validation():
    with pytest.raises(ValueError):
        CommWorld(Cluster(HENRI, 2), comm_placement="middle")


def test_comm_core_is_active_not_uncore(world):
    m = world.rank(0).machine
    core = world.rank(0).comm_core
    from repro.hardware import CoreActivity
    assert m.freq.activity(core) is CoreActivity.SCALAR
    # Comm thread alone does not ramp the uncore (§3.2).
    assert m.freq.uncore_hz(m.cores[core].socket_id) == HENRI.uncore.min_hz


def test_rank_buffer_defaults_to_nic_numa(world):
    buf = world.rank(0).buffer(1024)
    assert buf.numa_id == world.rank(0).machine.nic_numa.id
    far = world.rank(0).buffer(1024, numa_id=3)
    assert far.numa_id == 3


# -- P2P matching ----------------------------------------------------------

def test_isend_then_irecv_completes(world):
    p2p = P2PContext(world)
    sreq = p2p.isend(0, 1, world.rank(0).buffer(4096), tag=7)
    rreq = p2p.irecv(1, 0, world.rank(1).buffer(4096), tag=7)
    world.sim.run()
    assert sreq.completed and rreq.completed
    assert sreq.record is rreq.record
    assert sreq.record.size == 4096


def test_irecv_posted_first(world):
    p2p = P2PContext(world)
    rreq = p2p.irecv(1, 0, world.rank(1).buffer(64), tag=1)
    world.sim.run()
    assert not rreq.completed  # no sender yet
    p2p.isend(0, 1, world.rank(0).buffer(64), tag=1)
    world.sim.run()
    assert rreq.completed


def test_tag_matching_is_selective(world):
    p2p = P2PContext(world)
    r_tag5 = p2p.irecv(1, 0, world.rank(1).buffer(8), tag=5)
    p2p.isend(0, 1, world.rank(0).buffer(8), tag=9)
    world.sim.run()
    assert not r_tag5.completed
    r_tag9 = p2p.irecv(1, 0, world.rank(1).buffer(8), tag=9)
    world.sim.run()
    assert r_tag9.completed
    assert not r_tag5.completed


def test_fifo_matching_same_tag(world):
    p2p = P2PContext(world)
    bufs = [world.rank(0).buffer(16, label=f"s{i}") for i in range(3)]
    sends = [p2p.isend(0, 1, b, tag=2) for b in bufs]
    recvs = [p2p.irecv(1, 0, world.rank(1).buffer(16), tag=2)
             for _ in range(3)]
    world.sim.run()
    assert all(s.completed for s in sends)
    assert all(r.completed for r in recvs)
    # FIFO: recv i matches send i.
    for s, r in zip(sends, recvs):
        assert s.record is r.record


def test_size_is_min_of_both_sides(world):
    p2p = P2PContext(world)
    s = p2p.isend(0, 1, world.rank(0).buffer(100), tag=0)
    r = p2p.irecv(1, 0, world.rank(1).buffer(60), tag=0)
    world.sim.run()
    assert r.record.size == 60


def test_sends_serialized_per_comm_thread(world):
    """One comm thread per node: two same-source transfers cannot
    overlap (§2.1: a single thread handles all communications)."""
    p2p = P2PContext(world)
    size = 8 << 20
    s1 = p2p.isend(0, 1, world.rank(0).buffer(size), tag=1)
    s2 = p2p.isend(0, 1, world.rank(0).buffer(size), tag=2)
    p2p.irecv(1, 0, world.rank(1).buffer(size), tag=1)
    p2p.irecv(1, 0, world.rank(1).buffer(size), tag=2)
    world.sim.run()
    r1, r2 = s1.record, s2.record
    assert r2.start >= r1.end * (1 - 1e-9)


def test_transfers_log(world):
    p2p = P2PContext(world)
    p2p.isend(0, 1, world.rank(0).buffer(4), tag=0)
    p2p.irecv(1, 0, world.rank(1).buffer(4), tag=0)
    world.sim.run()
    assert len(p2p.transfers) == 1


# -- PingPong ----------------------------------------------------------

def test_pingpong_latency_reasonable(world):
    res = PingPong(world).run(LATENCY_SIZE, reps=20)
    assert 1e-6 < res.median_latency < 3e-6
    assert res.p10_latency <= res.median_latency <= res.p90_latency
    assert len(res.latencies) == 40  # two halves per rep


def test_pingpong_bandwidth_reasonable():
    world = CommWorld(Cluster(HENRI, 2), comm_placement="near")
    res = PingPong(world).run(BANDWIDTH_SIZE, reps=5)
    assert 9e9 < res.bandwidth < 11e9


def test_pingpong_validation():
    cluster = Cluster(HENRI, 1)
    world = CommWorld(cluster)
    with pytest.raises(ValueError):
        PingPong(world)
    world2 = CommWorld(Cluster(HENRI, 2))
    with pytest.raises(ValueError):
        PingPong(world2, rank_a=0, rank_b=0)


def test_pingpong_buffers_recycled(world):
    pp = PingPong(world)
    a1, b1 = pp._buffers(1024)
    a2, b2 = pp._buffers(1024)
    assert a1 is a2 and b1 is b2


def test_pingpong_determinism():
    def run_once():
        world = CommWorld(Cluster(HENRI, 2, seed=42), comm_placement="near")
        return PingPong(world).run(4, reps=10).latencies

    first, second = run_once(), run_once()
    assert np.array_equal(first, second)


def test_pingpong_seeds_differ():
    w1 = CommWorld(Cluster(HENRI, 2, seed=1), comm_placement="near")
    w2 = CommWorld(Cluster(HENRI, 2, seed=2), comm_placement="near")
    l1 = PingPong(w1).run(4, reps=10).latencies
    l2 = PingPong(w2).run(4, reps=10).latencies
    assert not np.array_equal(l1, l2)


def test_pingpong_result_statistics():
    from repro.mpi.pingpong import PingPongResult
    res = PingPongResult(size=100, latencies=np.array([1e-6, 2e-6, 3e-6]))
    assert res.median_latency == pytest.approx(2e-6)
    assert res.bandwidth == pytest.approx(100 / 2e-6)
    assert "size=100B" in res.summary()
