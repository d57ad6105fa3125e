"""Tests for the runtime system: workers, dependencies, comm layer."""

import numpy as np
import pytest

from repro.core.record import PAPER_VALUES
from repro.hardware import Cluster, HENRI, allocate
from repro.kernels.blas import TileCost, gemv_tile_cost
from repro.mpi import CommWorld
from repro.runtime import (
    AccessMode, DataHandle, RuntimeComm, RuntimeSystem, Task,
    runtime_spec_for,
)


def make_setup(n_workers=4, polling=None):
    cluster = Cluster(HENRI, 2)
    world = CommWorld(cluster, comm_placement="far")
    comm = RuntimeComm(world, n_workers=n_workers, polling=polling)
    for rt in comm.runtimes.values():
        rt.start()
    return cluster, world, comm.runtimes, comm


def cpu_task(ms=1.0, rank=0, name="t"):
    # flops chosen for ~ms milliseconds at ~10 Gflop/s scalar.
    return Task(name=name, cost=TileCost("cpu", ms * 1e7, 0.0), rank=rank)


def test_core_reservation():
    cluster, world, runtimes, _ = make_setup(n_workers=None)
    rt = runtimes[0]
    worker_cores = {w.core_id for w in rt.workers}
    assert world.rank(0).comm_core not in worker_cores
    assert rt.main_core not in worker_cores
    # §5.1: one comm core + one main core reserved.
    assert len(rt.workers) == HENRI.n_cores - 2


def test_worker_count_validation():
    cluster = Cluster(HENRI, 2)
    world = CommWorld(cluster)
    with pytest.raises(ValueError):
        RuntimeSystem(world, 0, n_workers=HENRI.n_cores)  # too many


def test_single_task_executes():
    cluster, world, runtimes, _ = make_setup()
    t = cpu_task()
    runtimes[0].submit(t)
    done = runtimes[0].wait_all()
    cluster.sim.run()
    assert done.triggered and t.done
    assert t.duration > 0
    assert sum(w.tasks_executed for w in runtimes[0].workers) == 1


def test_dependencies_respected():
    cluster, world, runtimes, _ = make_setup()
    machine = cluster.machine(0)
    h = DataHandle(buffer=allocate(machine, 0, 64))
    first = Task(name="w", cost=TileCost("c", 1e7, 0.0),
                 accesses=[(h, AccessMode.W)], rank=0)
    second = Task(name="r", cost=TileCost("c", 1e7, 0.0),
                  accesses=[(h, AccessMode.R)], rank=0)
    second.deps = [first]
    runtimes[0].submit(first)
    runtimes[0].submit(second)
    runtimes[0].wait_all()
    cluster.sim.run()
    assert first.end_time <= second.start_time + 1e-12


def test_parallel_speedup():
    def run_with(n_workers):
        cluster, world, runtimes, _ = make_setup(n_workers=n_workers)
        for i in range(8):
            runtimes[0].submit(cpu_task(name=f"t{i}"))
        runtimes[0].wait_all()
        t0 = cluster.sim.now
        cluster.sim.run()
        return cluster.sim.now - t0

    serial = run_with(1)
    parallel = run_with(8)
    assert parallel < serial / 3  # near-linear minus turbo effects


def test_independent_ranks():
    cluster, world, runtimes, _ = make_setup()
    t0 = cpu_task(rank=0)
    t1 = cpu_task(rank=1)
    runtimes[0].submit(t0)
    runtimes[1].submit(t1)
    runtimes[0].wait_all()
    runtimes[1].wait_all()
    cluster.sim.run()
    assert t0.done and t1.done


def test_external_dependency_gating():
    cluster, world, runtimes, _ = make_setup()
    rt = runtimes[0]
    gate = rt.external_dependency()
    gated = cpu_task(name="gated")
    gated.deps = [gate]
    rt.submit(gated)
    cluster.sim.run(until=0.01)
    assert not gated.done
    rt.complete_external(gate)
    rt.wait_all()
    cluster.sim.run()
    assert gated.done
    assert gated.start_time >= 0.01


def test_memory_bound_task_records_stalls():
    cluster, world, runtimes, _ = make_setup()
    machine = cluster.machine(0)
    h = DataHandle(buffer=allocate(machine, 0, 64 << 20))
    t = Task(name="gemv", cost=gemv_tile_cost(2000, 30000),
             accesses=[(h, AccessMode.R)], rank=0)
    before = machine.counters.snapshot()
    runtimes[0].submit(t)
    runtimes[0].wait_all()
    cluster.sim.run()
    worker_cores = [w.core_id for w in runtimes[0].workers]
    agg = machine.counters.delta(before, cores=worker_cores)
    assert agg.mem_stall > 0.5 * agg.busy  # GEMV is memory bound


def test_shutdown_stops_workers():
    cluster, world, runtimes, _ = make_setup()
    runtimes[0].submit(cpu_task())
    runtimes[0].wait_all()
    cluster.sim.run()
    for rt in runtimes.values():
        rt.shutdown()
    cluster.sim.run()
    from repro.hardware import CoreActivity
    for w in runtimes[0].workers:
        assert cluster.machine(0).freq.activity(w.core_id) \
            is CoreActivity.IDLE


def test_double_start_rejected():
    cluster, world, runtimes, _ = make_setup()
    with pytest.raises(RuntimeError):
        runtimes[0].start()


def test_runtime_spec_per_preset():
    from repro.hardware import BILLY, PYXIS
    henri = runtime_spec_for(HENRI)
    billy = runtime_spec_for(BILLY)
    pyxis = runtime_spec_for(PYXIS)
    # §5.2 ordering: billy < henri < pyxis overheads.
    assert billy.message_overhead_s < henri.message_overhead_s \
        < pyxis.message_overhead_s
    for preset, spec in (("henri", henri), ("billy", billy),
                         ("pyxis", pyxis)):
        assert spec.message_overhead_s == pytest.approx(
            PAPER_VALUES[f"runtime_overhead-{preset}"], rel=0.05)


def test_stack_inflation_monotone():
    spec = runtime_spec_for(HENRI)
    values = [spec.stack_inflation(r) for r in (0.0, 0.3, 0.6, 0.9, 1.0)]
    assert values == sorted(values)
    assert values[0] == 1.0
    assert values[-1] == pytest.approx(1.0 + spec.stack_stall_k)


# -- RuntimeComm --------------------------------------------------------

def test_runtime_message_slower_than_plain():
    cluster, world, runtimes, comm = make_setup(n_workers=0)
    from repro.mpi import P2PContext
    plain = P2PContext(world)
    buf_a = world.rank(0).buffer(4)
    buf_b = world.rank(1).buffer(4)
    plain.isend(0, 1, buf_a, tag=1)
    r_plain = plain.irecv(1, 0, buf_b, tag=1)
    world.sim.run()
    comm.isend(0, 1, buf_a, tag=2)
    r_rt = comm.irecv(1, 0, buf_b, tag=2)
    world.sim.run()
    overhead = r_rt.record.duration - r_plain.record.duration
    spec = runtime_spec_for(HENRI)
    assert overhead == pytest.approx(spec.message_overhead_s, rel=0.25)


def test_send_stats_accumulate():
    cluster, world, runtimes, comm = make_setup(n_workers=0)
    size = 1 << 20
    comm.isend(0, 1, world.rank(0).buffer(size), tag=1)
    comm.irecv(1, 0, world.rank(1).buffer(size), tag=1)
    world.sim.run()
    stats = comm.send_stats[0]
    assert stats.messages == 1
    assert stats.bytes_sent == size
    assert stats.time_in_send > 0
    assert comm.sending_bandwidth() == pytest.approx(
        stats.sending_bandwidth)


def test_numa_mismatch_penalty():
    cluster, world, runtimes, comm = make_setup(n_workers=0)
    comm_numa = cluster.machine(0).numa_of_core(
        world.rank(0).comm_core).id
    other_numa = (comm_numa + 1) % 4

    def latency(numa):
        s = comm.isend(0, 1, world.rank(0).buffer(4, numa), tag=numa)
        comm.irecv(1, 0, world.rank(1).buffer(4, comm_numa), tag=numa)
        world.sim.run()
        return s.record.duration

    matched = latency(comm_numa)
    mismatched = latency(other_numa)
    assert mismatched > matched
