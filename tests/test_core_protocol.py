"""Tests for the §2.1 side-by-side harness (protocols, ping-pong loop)
and its placement helpers."""

import pytest

from repro.core.placement import (
    ALL_PLACEMENTS, Placement, comm_core_for, compute_core_ids,
    data_numa_for,
)
from repro.core.results import ExperimentResult, Series
from repro.core.sidebyside import (
    SideBySideConfig, build_world, run_duration_protocol,
    run_throughput_protocol,
)
from repro.hardware import Cluster, HENRI
from repro.kernels import prime_kernel, triad_kernel
from repro.mpi import CommWorld, PingPong
from repro.mpi.pingpong import BANDWIDTH_SIZE, LATENCY_SIZE


# -- placement ----------------------------------------------------------

def test_placement_validation():
    with pytest.raises(ValueError):
        Placement("nearby", "far")
    with pytest.raises(ValueError):
        Placement("near", "remote")
    assert Placement("near", "far").key == "data_near_thread_far"
    assert len(ALL_PLACEMENTS) == 4


def test_comm_core_for():
    m = Cluster(HENRI, 1).machine(0)
    near = comm_core_for(m, "near")
    far = comm_core_for(m, "far")
    assert m.cores[near].socket_id == m.nic_numa.socket_id
    assert m.cores[far].socket_id != m.nic_numa.socket_id
    with pytest.raises(ValueError):
        comm_core_for(m, "middle")


def test_data_numa_for():
    m = Cluster(HENRI, 1).machine(0)
    assert data_numa_for(m, "near") == m.nic_numa.id
    far = data_numa_for(m, "far")
    assert m.numa_nodes[far].socket_id != m.nic_numa.socket_id
    with pytest.raises(ValueError):
        data_numa_for(m, "elsewhere")


def test_compute_core_ids_skip_comm_core():
    m = Cluster(HENRI, 1).machine(0)
    cores = compute_core_ids(m, 10, comm_core=3)
    assert 3 not in cores
    assert cores == [0, 1, 2, 4, 5, 6, 7, 8, 9, 10]
    assert compute_core_ids(m, 0, comm_core=0) == []
    with pytest.raises(ValueError):
        compute_core_ids(m, 36, comm_core=0)  # only 35 left
    with pytest.raises(ValueError):
        compute_core_ids(m, -1, comm_core=0)


# -- results containers ---------------------------------------------------

def test_series_add_and_at():
    s = Series(label="test")
    s.add_value(1.0, 2.0)
    s.add_value(2.0, 5.0)
    assert len(s) == 2
    assert s.median == [2.0, 5.0]
    assert s.at(1.1) == 2.0
    assert s.at(1.9) == 5.0
    assert s.p10[1] == s.p90[1] == 5.0


def test_series_empty_at_rejected():
    with pytest.raises(ValueError):
        Series(label="empty").at(0.0)


def test_experiment_result_series_management():
    res = ExperimentResult(name="x", title="X")
    s = res.new_series("a", xlabel="n")
    assert res["a"] is s
    res.observe("k", 42)
    assert res.observations["k"] == 42


# -- the ping-pong loop -----------------------------------------------------

def _latencies(**kw):
    """One-way latencies of 4 B ping-pongs on a fresh two-node world."""
    world = CommWorld(Cluster(HENRI, 2))
    out = []
    proc = world.sim.process(PingPong(world).process(
        LATENCY_SIZE, out=out, **kw))
    world.sim.run()
    assert proc.value is out
    return out


def test_pingpong_process_warmup_more_and_keep():
    every = _latencies(reps=8, warmup=0)
    assert len(every) == 16
    # Warmup iterations run but are not recorded.
    assert _latencies(reps=6, warmup=2) == every[4:]
    # A caller condition keeps it looping past `reps`.
    assert _latencies(reps=2, warmup=0, more=lambda it: it < 8) == every
    # The record filter, asked after each iteration, drops iterations.
    kept = iter([True, False, False, True] * 2)
    assert _latencies(reps=8, warmup=0, keep=lambda: next(kept)) == \
        every[0:2] + every[6:10] + every[14:16]


# -- protocols ----------------------------------------------------------

def test_build_world_respects_placement():
    cluster, world, _ = build_world(SideBySideConfig())
    assert len(cluster.machines) == 2
    assert len(world.ranks) == 2
    # The default far comm thread sits on the other socket from the NIC.
    m = cluster.machine(0)
    assert m.numa_of_core(world.rank(0).comm_core).socket_id != \
        m.nic_numa.socket_id

    cfg = SideBySideConfig(placement=Placement("far", "near"))
    cluster, world, pingpong = build_world(cfg)
    m = cluster.machine(0)
    assert m.cores[world.rank(0).comm_core].socket_id == \
        m.nic_numa.socket_id
    assert pingpong.data_numa_a == data_numa_for(m, "far")


def test_throughput_protocol_no_compute():
    cfg = SideBySideConfig(n_compute_cores=0, reps=5)
    out = run_throughput_protocol(cfg)
    assert out.comm_together is None
    assert out.compute_alone_bw_per_core == []
    assert out.compute_together_bw_per_core == []
    assert out.compute_alone_bw == 0.0
    assert out.comm_alone.size == LATENCY_SIZE
    assert 1e-6 < out.comm_alone.median_latency < 3e-6


def test_throughput_protocol_with_compute():
    cfg = SideBySideConfig(
        n_compute_cores=5, reps=5, window=0.02, window_warmup=0.005,
        kernel_factory=lambda: triad_kernel(elems=1_000_000))
    out = run_throughput_protocol(cfg)
    # Both nodes compute: one bandwidth sample per core per node.
    assert len(out.compute_alone_bw_per_core) == 10
    assert len(out.compute_together_bw_per_core) == 10
    assert out.compute_alone_bw > 1e9
    # Latency messages barely touch STREAM (§4.2).
    assert out.compute_together_bw == pytest.approx(
        out.compute_alone_bw, rel=0.1)
    assert out.comm_together is not None
    assert len(out.comm_together.latencies) >= 2 * cfg.reps


def test_throughput_protocol_bandwidth_contention():
    cfg = SideBySideConfig(
        n_compute_cores=5, reps=4, message_size=BANDWIDTH_SIZE,
        window=0.05, window_warmup=0.01,
        kernel_factory=lambda: triad_kernel(elems=1_000_000))
    out = run_throughput_protocol(cfg)
    # 64 MB messages hurt STREAM (§4.3: up to 25 % at 5 cores).
    assert out.compute_together_bw < 0.95 * out.compute_alone_bw
    # And STREAM hurts the network.
    assert out.comm_together.median_latency > out.comm_alone.median_latency


def test_throughput_contention_degrades_latency():
    """The §4 shape: once streaming cores reach the comm thread's
    socket (35 of henri's 36 cores), ping-pong latency inflates."""
    loaded = run_throughput_protocol(SideBySideConfig(
        n_compute_cores=35, reps=6, warmup_reps=1, window=0.02,
        window_warmup=0.005,
        kernel_factory=lambda: triad_kernel(elems=200_000)))
    assert loaded.comm_together.median_latency \
        > 1.5 * loaded.comm_alone.median_latency


def test_duration_protocol_requires_compute():
    with pytest.raises(ValueError, match="computing cores"):
        run_duration_protocol(SideBySideConfig(n_compute_cores=0))


def test_duration_protocol_cpu_bound_kernel():
    cfg = SideBySideConfig(
        n_compute_cores=4, reps=5,
        kernel_factory=lambda: prime_kernel(n=400_000), sweeps=1)
    out = run_duration_protocol(cfg)
    assert out.compute_alone_duration > 0
    assert out.compute_alone_makespan >= out.compute_alone_duration
    # CPU-bound compute does not degrade latency (§3.2) - if anything the
    # uncore ramp improves it slightly.
    assert out.comm_together.median_latency <= \
        out.comm_alone.median_latency * 1.05
    # And communications do not slow the CPU-bound compute.
    assert out.compute_together_duration == pytest.approx(
        out.compute_alone_duration, rel=0.05)
    assert out.compute_together_makespan >= out.compute_together_duration


def test_protocol_determinism():
    cfg = SideBySideConfig(n_compute_cores=3, reps=4,
                           window=0.01, window_warmup=0.002,
                           kernel_factory=lambda: triad_kernel(
                               elems=500_000))
    a = run_throughput_protocol(cfg)
    b = run_throughput_protocol(cfg)
    assert a.comm_alone.median_latency == b.comm_alone.median_latency
    assert a.compute_alone_bw == b.compute_alone_bw
    assert a.compute_together_bw_per_core == b.compute_together_bw_per_core


def test_config_spec_resolution():
    assert SideBySideConfig(spec="henri").resolved_spec() is HENRI
    assert SideBySideConfig(spec=HENRI).resolved_spec() is HENRI
