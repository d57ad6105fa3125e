"""Tests for the shared-switch fabric extension (>2-node clusters)."""

import pytest

from repro.hardware import Cluster, HENRI
from repro.mpi import CommWorld, P2PContext


def test_switch_validation():
    with pytest.raises(ValueError):
        Cluster(HENRI, 2, switch_bw=0)


def test_wire_path_with_and_without_switch():
    plain = Cluster(HENRI, 2)
    assert plain.switch is None
    assert plain.wire_path(0, 1) == [plain.wire(0, 1)]
    switched = Cluster(HENRI, 2, switch_bw=20e9)
    assert switched.switch is not None
    assert switched.wire_path(0, 1) == [switched.wire(0, 1),
                                        switched.switch]


def run_pair(cluster, src, dst, size):
    world = getattr(cluster, "_world", None)
    if world is None:
        world = CommWorld(cluster, comm_placement="near")
        cluster._world = world
    p2p = getattr(cluster, "_p2p", None)
    if p2p is None:
        p2p = P2PContext(world)
        cluster._p2p = p2p
    s = p2p.isend(src, dst, world.rank(src).buffer(size),
                  tag=100 * src + dst)
    p2p.irecv(dst, src, world.rank(dst).buffer(size),
              tag=100 * src + dst)
    return s


def test_oversubscribed_switch_caps_aggregate_bandwidth():
    """Four simultaneous pair-wise transfers through a 15 GB/s switch
    cannot exceed the switch's capacity in aggregate."""
    size = 32 << 20
    cluster = Cluster(HENRI, 8, switch_bw=15e9)
    sends = [run_pair(cluster, 2 * i, 2 * i + 1, size) for i in range(4)]
    cluster.sim.run()
    durations = [s.record.duration for s in sends]
    agg = 4 * size / max(durations)
    assert agg <= 15e9 * 1.05
    # Non-blocking fabric for comparison: each pair at full wire speed.
    cluster2 = Cluster(HENRI, 8)
    sends2 = [run_pair(cluster2, 2 * i, 2 * i + 1, size)
              for i in range(4)]
    cluster2.sim.run()
    agg2 = 4 * size / max(s.record.duration for s in sends2)
    assert agg2 > 2.0 * agg


def test_generous_switch_is_transparent():
    size = 16 << 20
    slow = Cluster(HENRI, 2, switch_bw=400e9)
    fast = Cluster(HENRI, 2)
    s1 = run_pair(slow, 0, 1, size)
    slow.sim.run()
    s2 = run_pair(fast, 0, 1, size)
    fast.sim.run()
    assert s1.record.duration == pytest.approx(s2.record.duration,
                                               rel=0.02)

