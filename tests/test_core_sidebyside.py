"""Tests for the §2.1 side-by-side protocol orchestration, on a small
shared configuration (see also test_core_protocol.py)."""

import pytest

from repro.core.placement import Placement
from repro.core.sidebyside import (SideBySideConfig, build_world,
                                   run_duration_protocol,
                                   run_throughput_protocol)
from repro.kernels.stream import triad_kernel
from repro.mpi.pingpong import LATENCY_SIZE


def _config(**kw):
    base = dict(n_compute_cores=4, reps=6, warmup_reps=1,
                window=0.02, window_warmup=0.005,
                kernel_factory=lambda: triad_kernel(elems=200_000))
    base.update(kw)
    return SideBySideConfig(**base)


def test_build_world_places_comm_and_data():
    config = _config(placement=Placement(data="near", comm_thread="far"))
    cluster, world, pingpong = build_world(config)
    assert len(cluster.machines) == 2
    assert len(world.ranks) == 2
    # A far comm thread sits on the other socket from the NIC.
    machine = cluster.machine(0)
    rank = world.rank(0)
    comm_numa = machine.numa_of_core(rank.comm_core)
    assert comm_numa.socket_id != machine.nic_numa.socket_id


def test_throughput_protocol_zero_cores_skips_together():
    out = run_throughput_protocol(_config(n_compute_cores=0))
    assert out.comm_together is None
    assert out.compute_alone_bw_per_core == []
    assert out.compute_together_bw_per_core == []
    assert out.compute_alone_bw == 0.0
    assert out.comm_alone.median_latency > 0


def test_throughput_protocol_measures_all_cores():
    config = _config(n_compute_cores=3)
    out = run_throughput_protocol(config)
    # Both nodes compute: one bandwidth sample per core per node.
    assert len(out.compute_alone_bw_per_core) == 6
    assert len(out.compute_together_bw_per_core) == 6
    assert out.compute_alone_bw > 0
    assert out.comm_together is not None
    assert len(out.comm_together.latencies) >= 2 * config.reps


def test_duration_protocol_requires_compute_cores():
    with pytest.raises(ValueError, match="computing cores"):
        run_duration_protocol(_config(n_compute_cores=0))


def test_duration_protocol_outcome_shape():
    out = run_duration_protocol(_config(n_compute_cores=2, sweeps=1))
    assert out.compute_alone_duration > 0
    assert out.compute_together_duration > 0
    assert out.compute_alone_makespan >= out.compute_alone_duration
    assert out.compute_together_makespan >= out.compute_together_duration
    assert out.comm_alone.median_latency > 0


def test_protocol_is_deterministic():
    a = run_throughput_protocol(_config(n_compute_cores=2))
    b = run_throughput_protocol(_config(n_compute_cores=2))
    assert a.comm_alone.median_latency == b.comm_alone.median_latency
    assert a.compute_together_bw_per_core == b.compute_together_bw_per_core


def test_message_size_reaches_pingpong():
    out = run_throughput_protocol(
        _config(n_compute_cores=0, message_size=LATENCY_SIZE))
    assert out.comm_alone.size == LATENCY_SIZE
