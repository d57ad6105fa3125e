"""Cross-cutting property-based tests on system-level invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Cluster, CoreActivity, HENRI
from repro.kernels import run_kernel, triad_kernel, tunable_triad
from repro.mpi import CommWorld


def transfer_duration(world, size):
    a, b = world.rank(0), world.rank(1)
    src, dst = a.buffer(size), b.buffer(size)
    proc = world.sim.process(world.engine.half_transfer(
        a.node_id, a.comm_core, src, b.node_id, b.comm_core, dst, size))
    world.sim.run()
    return proc.value


@settings(max_examples=25, deadline=None)
@given(size=st.integers(min_value=0, max_value=64 << 20))
def test_transfer_invariants_any_size(size):
    world = CommWorld(Cluster(HENRI, 2), comm_placement="near")
    rec = transfer_duration(world, size)
    # Latency floor: never faster than wire + minimal software overhead.
    assert rec.duration >= HENRI.nic.wire_latency
    # Bandwidth ceiling: never beats the wire.
    assert rec.bandwidth <= HENRI.nic.wire_bw * 1.01
    # Components are non-negative and sum to ~duration.
    assert all(v >= 0 for v in rec.components.values())
    total = sum(rec.components.values())
    assert total == pytest.approx(rec.duration, rel=0.10)


@settings(max_examples=15, deadline=None)
@given(n_cores=st.integers(min_value=1, max_value=35),
       cursor=st.sampled_from([1, 8, 64, 512]))
def test_kernel_aggregate_bandwidth_bounded(n_cores, cursor):
    """No kernel population can exceed the controller's capacity."""
    cluster = Cluster(HENRI, 1)
    machine = cluster.machine(0)
    runs = [run_kernel(machine, i,
                       tunable_triad(cursor, elems=300_000),
                       data_numa=0, sweeps=1)
            for i in range(n_cores)]
    cluster.sim.run()
    total_bytes = sum(r.stats.bytes_moved for r in runs)
    makespan = max(r.stats.end for r in runs)
    assert total_bytes / makespan <= HENRI.memory.controller_bw * 1.02
    for r in runs:
        assert r.stats.memory_bandwidth <= \
            HENRI.memory.per_core_bw * 1.02
        assert 0 <= r.stats.stall_fraction <= 1


@settings(max_examples=20, deadline=None)
@given(actions=st.lists(
    st.tuples(st.integers(min_value=0, max_value=35),
              st.sampled_from(list(CoreActivity))),
    min_size=1, max_size=40))
def test_frequency_always_in_valid_range(actions):
    machine = Cluster(HENRI, 1).machine(0)
    lo = HENRI.freq.min_hz
    hi = max(HENRI.freq.turbo.max_frequency,
             HENRI.freq.avx512.max_frequency)
    for core, activity in actions:
        machine.set_core_activity(core, activity)
        for c in (0, core, 35):
            assert lo <= machine.freq.core_hz(c) <= hi
        for s in (0, 1):
            assert HENRI.uncore.min_hz <= machine.freq.uncore_hz(s) \
                <= HENRI.uncore.max_hz
            assert 0 < machine.freq.uncore_capacity_factor(s) <= 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_end_to_end_determinism_any_seed(seed):
    def run():
        cluster = Cluster(HENRI, 2, seed=seed)
        world = CommWorld(cluster, comm_placement="far")
        runs = [run_kernel(cluster.machine(0), i,
                           triad_kernel(elems=200_000), sweeps=1)
                for i in range(4)]
        rec = transfer_duration(world, 1 << 20)
        return (rec.duration,
                tuple(r.stats.duration for r in runs))

    assert run() == run()


def test_counters_never_negative_after_mixed_load():
    cluster = Cluster(HENRI, 1)
    machine = cluster.machine(0)
    from repro.kernels import avx_kernel, prime_kernel
    run_kernel(machine, 0, triad_kernel(elems=300_000), sweeps=1)
    run_kernel(machine, 1, prime_kernel(n=200_000), sweeps=1)
    run_kernel(machine, 2, avx_kernel(work_flops=1e9), sweeps=1)
    cluster.sim.run()
    for core in range(3):
        st_ = machine.counters.state(core)
        assert st_.busy >= st_.mem_stall >= 0
        assert st_.flops >= 0 and st_.bytes_moved >= 0
