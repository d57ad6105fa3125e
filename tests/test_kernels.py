"""Tests for the kernel layer: roofline executor, STREAM, prime, AVX, BLAS."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.record import PAPER_VALUES
from repro.hardware import Cluster, CoreActivity, HENRI
from repro.kernels import (
    Kernel, arithmetic_intensity, avx_kernel, axpy_cost, copy_kernel,
    cursor_for_intensity, dot_cost, gemm_tile_cost, gemv_tile_cost,
    intensity_of_cursor, prime_kernel, run_kernel, triad_kernel,
    tunable_triad,
)


@pytest.fixture
def machine():
    return Cluster(HENRI, 1).machine(0)


# -- Kernel dataclass ----------------------------------------------------

def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel(name="empty", elems=10)          # does nothing
    with pytest.raises(ValueError):
        Kernel(name="neg", elems=0, flops_per_elem=1)
    with pytest.raises(ValueError):
        Kernel(name="neg", elems=10, bytes_per_elem=-1)


def test_arithmetic_intensity():
    assert arithmetic_intensity(2, 24) == pytest.approx(1 / 12)
    assert math.isinf(arithmetic_intensity(10, 0))
    assert triad_kernel().intensity == pytest.approx(2 / 24)
    assert not prime_kernel().streaming
    assert triad_kernel().streaming


# -- STREAM kernels ----------------------------------------------------------

def test_stream_kernel_shapes():
    copy = copy_kernel(elems=1000)
    assert copy.bytes_per_elem == 16
    assert copy.flops_per_elem == 0
    triad = triad_kernel(elems=1000)
    assert triad.bytes_per_elem == 24
    assert triad.flops_per_elem == 2


def test_tunable_triad_cursor():
    assert tunable_triad(1).flops_per_elem == 2
    assert tunable_triad(72).flops_per_elem == 144
    assert intensity_of_cursor(72) == pytest.approx(6.0)
    assert cursor_for_intensity(6.0) == 72
    with pytest.raises(ValueError):
        tunable_triad(0)
    with pytest.raises(ValueError):
        cursor_for_intensity(0)


@settings(max_examples=30, deadline=None)
@given(cursor=st.integers(min_value=1, max_value=2000))
def test_cursor_intensity_roundtrip(cursor):
    intensity = intensity_of_cursor(cursor)
    assert cursor_for_intensity(intensity) == cursor


# -- executor behaviour ----------------------------------------------------

def test_single_core_stream_hits_per_core_limit(machine):
    run = run_kernel(machine, 0, triad_kernel(elems=2_000_000), sweeps=2)
    machine.sim.run()
    assert run.stats.memory_bandwidth == pytest.approx(
        HENRI.memory.per_core_bw, rel=0.05)
    assert run.stats.sweeps_done == 2
    assert run.stats.elems_done == 4_000_000


def test_stream_contention_reduces_per_core_bandwidth(machine):
    runs = [run_kernel(machine, i, triad_kernel(elems=2_000_000),
                       data_numa=0, sweeps=1) for i in range(9)]
    machine.sim.run()
    per_core = [r.stats.memory_bandwidth for r in runs]
    total = sum(per_core)
    assert total == pytest.approx(HENRI.memory.controller_bw, rel=0.1)
    assert max(per_core) < HENRI.memory.per_core_bw


def test_memory_bound_kernel_stalls(machine):
    run = run_kernel(machine, 0, triad_kernel(elems=1_000_000), sweeps=1)
    machine.sim.run()
    assert run.stats.stall_fraction > 0.8  # TRIAD is ~96 % stalled


def test_cpu_bound_kernel_does_not_stall(machine):
    run = run_kernel(machine, 0, prime_kernel(n=500_000), sweeps=1)
    machine.sim.run()
    assert run.stats.stall_fraction == 0.0
    assert run.stats.bytes_moved == 0.0


def test_prime_kernel_duration_scales_with_frequency(machine):
    machine.freq.set_userspace(2.3e9)
    r1 = run_kernel(machine, 0, prime_kernel(n=500_000), sweeps=1)
    machine.sim.run()
    d_fast = r1.stats.duration

    m2 = Cluster(HENRI, 1).machine(0)
    m2.freq.set_userspace(1.0e9)
    r2 = run_kernel(m2, 0, prime_kernel(n=500_000), sweeps=1)
    m2.sim.run()
    assert r2.stats.duration == pytest.approx(d_fast * 2.3, rel=0.1)


def test_avx_kernel_triggers_license(machine):
    run = run_kernel(machine, 0, avx_kernel(), sweeps=1)
    machine.sim.run(until=1e-4)
    assert machine.freq.activity(0) is CoreActivity.AVX512
    machine.sim.run()
    assert run.stats.flops == pytest.approx(1.3e10)


def test_avx_weak_scaling_duration(machine):
    """Fig 3: 4 cores ~135 ms, more cores slower (license frequency)."""
    runs = [run_kernel(machine, i, avx_kernel(), sweeps=1)
            for i in range(4)]
    machine.sim.run()
    d4 = max(r.stats.duration for r in runs)
    assert d4 == pytest.approx(PAPER_VALUES["fig3a-avx-4-core-duration"],
                               rel=0.1)

    m2 = Cluster(HENRI, 1).machine(0)
    runs20 = [run_kernel(m2, i, avx_kernel(), sweeps=1) for i in range(20)]
    m2.sim.run()
    d20 = max(r.stats.duration for r in runs20)
    assert d20 > d4  # lower AVX license frequency with more active cores


def test_kernel_stop_request(machine):
    run = run_kernel(machine, 0, triad_kernel(elems=10_000_000), sweeps=None)
    machine.sim.run(until=0.005)
    run.request_stop()
    machine.sim.run()
    assert run.process.triggered
    assert run.stats.elems_done > 0
    # Core released.
    assert machine.freq.activity(0) is CoreActivity.IDLE


def test_kernel_releases_streaming_weight(machine):
    run = run_kernel(machine, 0, triad_kernel(elems=500_000), sweeps=1)
    machine.sim.run(until=1e-4)
    assert machine.streaming_cores_on_socket(0) > 0.5
    machine.sim.run()
    assert machine.streaming_cores_on_socket(0) == 0.0


def test_streaming_weight_scales_with_intensity(machine):
    """High-cursor (CPU-bound) kernels barely register as streaming."""
    run = run_kernel(machine, 0, tunable_triad(480, elems=500_000),
                     sweeps=1)
    machine.sim.run(until=1e-4)
    assert machine.streaming_cores_on_socket(0) < 0.3
    machine.sim.run()


def test_counters_accumulate(machine):
    before = machine.counters.snapshot()
    run_kernel(machine, 2, triad_kernel(elems=500_000), sweeps=1)
    machine.sim.run()
    delta = machine.counters.delta(before, cores=[2])
    assert delta.bytes_moved == pytest.approx(500_000 * 24)
    assert delta.flops == pytest.approx(500_000 * 2)
    assert delta.busy > 0
    assert delta.mem_stall <= delta.busy


def test_invalid_numa_rejected(machine):
    with pytest.raises(ValueError):
        run_kernel(machine, 0, triad_kernel(), data_numa=99)


# -- BLAS tile costs ----------------------------------------------------------

def test_gemm_tile_cost_scaling():
    small = gemm_tile_cost(128)
    big = gemm_tile_cost(256)
    assert big.flops == pytest.approx(small.flops * 8)
    assert big.intensity > small.intensity  # bigger tiles reuse more
    assert big.vector


def test_gemv_cost_low_intensity():
    cost = gemv_tile_cost(1000, 1000)
    assert cost.intensity == pytest.approx(0.25, rel=0.05)


def test_axpy_dot_costs():
    assert axpy_cost(100).intensity == pytest.approx(2 / 24)
    assert dot_cost(100).intensity == pytest.approx(2 / 16)
    with pytest.raises(ValueError):
        axpy_cost(0)
    with pytest.raises(ValueError):
        gemm_tile_cost(0)
    with pytest.raises(ValueError):
        gemv_tile_cost(0, 5)


def test_tile_cost_scaled():
    base = gemm_tile_cost(64)
    double = base.scaled(2)
    assert double.flops == pytest.approx(base.flops * 2)
    assert double.bytes == pytest.approx(base.bytes * 2)
    assert double.vector == base.vector


# -- property: roofline duration is max(compute, memory) ---------------------

@settings(max_examples=20, deadline=None)
@given(cursor=st.sampled_from([1, 4, 16, 64, 256, 1024]))
def test_roofline_duration_model(cursor):
    machine = Cluster(HENRI, 1).machine(0)
    elems = 200_000
    kernel = tunable_triad(cursor, elems=elems, chunk_elems=elems)
    machine.spec = machine.spec.with_overrides(noise=0.0)
    run = run_kernel(machine, 0, kernel, sweeps=1, noise=0.0)
    machine.sim.run()
    hz = HENRI.freq.turbo.frequency(1)
    cpu = elems * kernel.flops_per_elem / (HENRI.flops_per_cycle * hz)
    mem = elems * 24 / HENRI.memory.per_core_bw
    expected = max(cpu, mem)
    assert run.stats.duration == pytest.approx(expected, rel=0.02)
