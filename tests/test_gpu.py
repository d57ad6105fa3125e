"""Tests for the GPU substrate and its interference experiments (§8)."""

import pytest

from repro.core.gpu_experiments import gpu_vs_network, gpu_vs_stream
from repro.hardware import Cluster, HENRI
from repro.hardware.gpu import (
    GPU, GPUSpec, MI50, V100, attach_gpu, run_gpu_kernel,
)
from repro.kernels.blas import TileCost, gemm_tile_cost


@pytest.fixture
def machine():
    return Cluster(HENRI, 1).machine(0)


def test_attach_and_paths(machine):
    gpu = attach_gpu(machine, V100)
    assert machine.gpus == [gpu]
    path = gpu.host_path(0)
    assert path[0] is machine.numa_nodes[0].controller
    assert path[-1] is gpu.pcie
    # Remote host memory crosses the inter-socket link.
    far = gpu.host_path(3)
    assert machine.socket_link(1, 0) in far or \
        machine.socket_link(0, 1) in far


def test_attach_validation(machine):
    with pytest.raises(ValueError):
        attach_gpu(machine, GPUSpec(name="bad", attached_numa=9))


def test_memcpy_reaches_pcie_speed(machine):
    gpu = attach_gpu(machine, V100)
    proc = machine.sim.process(gpu.memcpy_process(64 << 20))
    machine.sim.run()
    assert proc.value == pytest.approx(V100.pcie_bw, rel=0.05)


def test_memcpy_validation(machine):
    gpu = attach_gpu(machine, V100)
    with pytest.raises(ValueError):
        gpu.memcpy(0)
    with pytest.raises(ValueError):
        gpu.memcpy(10, direction="sideways")


def test_memcpy_contends_with_stream(machine):
    """H2D copies lose bandwidth under STREAM — the §8 question."""
    from repro.kernels import run_kernel, triad_kernel
    gpu = attach_gpu(machine, V100)
    runs = [run_kernel(machine, i, triad_kernel(), data_numa=0,
                       sweeps=None) for i in range(12)]
    proc = machine.sim.process(gpu.memcpy_process(64 << 20))
    machine.sim.run(until=proc)
    for r in runs:
        r.request_stop()
    assert proc.value < 0.6 * V100.pcie_bw


def test_two_gpus_share_host_memory(machine):
    gpu1 = attach_gpu(machine, V100)
    gpu2 = attach_gpu(machine, MI50)
    f1 = gpu1.memcpy(1 << 30)
    f2 = gpu2.memcpy(1 << 30)
    # Each has its own PCIe link; host mc (52 GB/s) fits both at 13.
    assert f1.rate == pytest.approx(V100.pcie_bw, rel=0.05)
    assert f2.rate == pytest.approx(MI50.pcie_bw, rel=0.05)


def test_gpu_kernel_roofline(machine):
    gpu = attach_gpu(machine, V100)
    # Compute-bound GEMM tile: duration ~ flops / device rate.
    cost = gemm_tile_cost(512)
    proc = run_gpu_kernel(gpu, cost)
    machine.sim.run()
    stats = proc.value
    expected = cost.flops / V100.fp64_flops + V100.kernel_launch_s
    assert stats.duration == pytest.approx(expected, rel=0.1)
    # Memory-bound kernel: duration ~ bytes / HBM bandwidth.
    mem = TileCost("axpy", flops=1.0, bytes=8e9)
    proc = run_gpu_kernel(gpu, mem)
    machine.sim.run()
    assert proc.value.duration == pytest.approx(
        8e9 / V100.hbm_bw + V100.kernel_launch_s, rel=0.1)


def test_gpu_kernel_validation(machine):
    gpu = attach_gpu(machine, V100)
    with pytest.raises(ValueError):
        run_gpu_kernel(gpu, gemm_tile_cost(64), sweeps=0)


# -- experiments ----------------------------------------------------------

def test_gpu_vs_network_experiment():
    res = gpu_vs_network(reps=6, chunk=8 << 20)
    # GPU traffic costs the network bandwidth (shared controller), but
    # small-message latency survives (DMA traffic is not PIO-colocated).
    assert res.observations["bandwidth_ratio"] < 0.97
    assert res.observations["latency_ratio"] < 1.3
    assert res.observations["memcpy_bw_during_bandwidth"] > 0


def test_gpu_vs_stream_experiment():
    res = gpu_vs_stream(core_counts=[0, 4, 12], copies_per_point=4)
    series = res["memcpy_bw"]
    assert series.median[0] == pytest.approx(V100.pcie_bw, rel=0.1)
    assert res.observations["memcpy_bw_min_ratio"] < 0.75
