"""Tests for the network model (the protocol engine)."""

import math

import pytest

from repro.hardware import Cluster, HENRI, RegistrationCache, allocate
from repro.hardware.nic import dma_demand, dma_efficiency
from repro.mpi import CommWorld
from repro.netmodel import ProtocolEngine


@pytest.fixture
def world():
    return CommWorld(Cluster(HENRI, 2), comm_placement="near")


def run_transfer(world, size, src_numa=0, dst_numa=0):
    a, b = world.rank(0), world.rank(1)
    src = a.buffer(size, src_numa)
    dst = b.buffer(size, dst_numa)
    proc = world.sim.process(world.engine.half_transfer(
        a.node_id, a.comm_core, src, b.node_id, b.comm_core, dst, size))
    world.sim.run()
    return proc.value


# -- protocol selection ---------------------------------------------------

def test_eager_below_threshold(world):
    rec = run_transfer(world, HENRI.nic.eager_threshold)
    assert rec.protocol == "eager"


def test_rendezvous_above_threshold(world):
    rec = run_transfer(world, HENRI.nic.eager_threshold + 1)
    assert rec.protocol == "rendezvous"


def test_zero_byte_message(world):
    rec = run_transfer(world, 0)
    assert rec.protocol == "eager"
    assert rec.duration > 0  # still pays overheads


def test_negative_size_rejected(world):
    a, b = world.rank(0), world.rank(1)
    proc = world.sim.process(world.engine.half_transfer(
        a.node_id, a.comm_core, a.buffer(4), b.node_id, b.comm_core,
        b.buffer(4), -1))
    world.sim.run()
    assert proc.triggered and not proc.ok


def test_latency_monotone_in_size(world):
    sizes = [4, 512, 8192, 262144, 8 << 20]
    durations = [run_transfer(world, s).duration for s in sizes]
    assert durations == sorted(durations)


def test_bandwidth_approaches_wire_speed(world):
    rec = run_transfer(world, 64 << 20)
    assert rec.bandwidth > 0.9 * HENRI.nic.wire_bw * 0.96


def test_rendezvous_jump_at_protocol_switch(world):
    """Classic NetPIPE shape: once the registration cache is warm
    (recycled buffers, §2.1), rendezvous beats the eager copy path."""
    below = run_transfer(world, HENRI.nic.eager_threshold)
    a, b = world.rank(0), world.rank(1)
    size = HENRI.nic.eager_threshold * 4
    src, dst = a.buffer(size), b.buffer(size)

    def twice():
        cold = yield world.sim.process(world.engine.half_transfer(
            a.node_id, a.comm_core, src, b.node_id, b.comm_core, dst))
        warm = yield world.sim.process(world.engine.half_transfer(
            a.node_id, a.comm_core, src, b.node_id, b.comm_core, dst))
        return cold, warm

    proc = world.sim.process(twice())
    world.sim.run()
    cold, warm = proc.value
    assert cold.components["registration"] > 0
    assert warm.components["registration"] == 0
    assert warm.bandwidth > below.bandwidth


# -- registration cache ----------------------------------------------------

def test_registration_cost_paid_once(world):
    a, b = world.rank(0), world.rank(1)
    src = a.buffer(1 << 20)
    dst = b.buffer(1 << 20)

    def go():
        first = yield world.sim.process(world.engine.half_transfer(
            a.node_id, a.comm_core, src, b.node_id, b.comm_core, dst))
        second = yield world.sim.process(world.engine.half_transfer(
            a.node_id, a.comm_core, src, b.node_id, b.comm_core, dst))
        return first, second

    proc = world.sim.process(go())
    world.sim.run()
    first, second = proc.value
    assert first.components["registration"] > 0
    assert second.components["registration"] == 0
    assert first.duration > second.duration


def test_registration_cache_lru():
    cache = RegistrationCache(capacity=2)
    cluster = Cluster(HENRI, 1)
    bufs = [allocate(cluster.machine(0), 0, 64) for _ in range(3)]
    assert not cache.lookup(bufs[0])
    assert not cache.lookup(bufs[1])
    assert cache.lookup(bufs[0])         # hit, refreshes LRU
    assert not cache.lookup(bufs[2])     # evicts bufs[1]
    assert not cache.lookup(bufs[1])     # miss again
    assert cache.hits == 1
    assert len(cache) == 2


def test_registration_cache_invalidate():
    cache = RegistrationCache()
    cluster = Cluster(HENRI, 1)
    buf = allocate(cluster.machine(0), 0, 64)
    cache.lookup(buf)
    cache.invalidate(buf)
    assert not cache.lookup(buf)


def test_registration_cache_validation():
    with pytest.raises(ValueError):
        RegistrationCache(capacity=0)


# -- DMA efficiency ----------------------------------------------------------

def test_dma_efficiency_degrades_under_memory_pressure():
    cluster = Cluster(HENRI, 1)
    m = cluster.machine(0)
    base = dma_efficiency(m, 0)
    mc = m.numa_nodes[0].controller
    cluster.net.transfer([mc], size=1e15, label="hog")
    loaded = dma_efficiency(m, 0)
    assert loaded < base
    assert loaded >= 0.05


def test_dma_demand_bounded_by_wire(world):
    m = world.rank(0).machine
    assert dma_demand(m, 0) <= HENRI.nic.wire_bw


def test_dma_uncore_sensitivity(world):
    m = world.rank(0).machine
    m.set_uncore(HENRI.uncore.max_hz)
    hi = dma_efficiency(m, 0)
    m.set_uncore(HENRI.uncore.min_hz)
    lo = dma_efficiency(m, 0)
    assert lo < hi
    # Anchor: ~4 % effect (10.5 vs 10.1 GB/s in the paper).
    assert hi / lo == pytest.approx(1.04, abs=0.03)


# -- interference couplings ---------------------------------------------------

def test_large_transfer_slowed_by_stream_contention(world):
    baseline = run_transfer(world, 64 << 20).duration
    # Saturate the NIC-side controller with synthetic core streams.
    world2 = CommWorld(Cluster(HENRI, 2), comm_placement="near")
    m = world2.rank(0).machine
    for i in range(20):
        world2.cluster.net.transfer(
            m.load_path(i, 0), size=1e12,
            demand=HENRI.memory.per_core_bw, label=f"stream{i}")
    contended = run_transfer(world2, 64 << 20).duration
    assert contended > 1.5 * baseline


def test_transfer_record_components_sum_close_to_duration(world):
    rec = run_transfer(world, 1 << 20)
    total = sum(rec.components.values())
    assert total == pytest.approx(rec.duration, rel=0.05)
