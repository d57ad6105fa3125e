"""Tests for the eager scheduler and the polling-contention model."""

import pytest

from repro.hardware import Cluster, HENRI, allocate
from repro.kernels.blas import TileCost
from repro.mpi import CommWorld
from repro.runtime import (DataHandle, EagerScheduler, PollingSpec,
                           RuntimeSystem, Task)


def make_task(numa=0, machine=None):
    accesses = []
    if machine is not None:
        accesses = [(DataHandle(buffer=allocate(machine, numa, 64)),)]
        from repro.runtime import AccessMode
        accesses = [(accesses[0][0], AccessMode.R)]
    return Task(name="t", cost=TileCost("noop", 1.0, 0.0),
                accesses=accesses)


def test_fifo_order_without_locality():
    sched = EagerScheduler(locality=False)
    tasks = [make_task() for _ in range(3)]
    for t in tasks:
        sched.push(t)
    assert [sched.pop() for _ in range(3)] == tasks
    assert sched.pop() is None
    assert sched.stats.pushed == 3
    assert sched.stats.popped == 3  # empty pops are not counted
    assert sched.stats.max_queue == 3


def test_locality_prefers_same_socket_tasks():
    machine = Cluster(HENRI, 1).machine(0)
    sched = EagerScheduler(machine=machine, locality=True)
    remote = make_task(numa=3, machine=machine)   # socket 1
    local = make_task(numa=0, machine=machine)    # socket 0
    sched.push(remote)
    sched.push(local)
    # A socket-0 worker gets the socket-0 task despite FIFO order.
    assert sched.pop(worker_socket=0) is local
    assert sched.pop(worker_socket=0) is remote


def test_locality_falls_back_to_fifo():
    machine = Cluster(HENRI, 1).machine(0)
    sched = EagerScheduler(machine=machine, locality=True)
    t1 = make_task(numa=3, machine=machine)
    t2 = make_task(numa=3, machine=machine)
    sched.push(t1)
    sched.push(t2)
    assert sched.pop(worker_socket=0) is t1


def test_polling_spec_defaults_match_starpu():
    polling = PollingSpec()
    assert polling.backoff_max_nops == 32  # StarPU's default
    assert 0 < polling.worker_duty() < 1


def test_polling_duty_ordering():
    """§5.4: smaller backoff -> more frequent polling -> more contention."""
    duty = {b: PollingSpec(backoff_max_nops=b).worker_duty()
            for b in (2, 32, 10000)}
    assert duty[2] > duty[32] > duty[10000]
    assert PollingSpec(paused=True).worker_duty() == 0.0


def test_polling_validation():
    with pytest.raises(ValueError):
        PollingSpec(backoff_max_nops=0)


def test_lock_wait_scales_with_pollers():
    sched = EagerScheduler(PollingSpec(backoff_max_nops=32))
    sched.set_idle_pollers(0)
    assert sched.lock_wait() == 0.0
    sched.set_idle_pollers(10)
    ten = sched.lock_wait()
    sched.set_idle_pollers(34)
    assert sched.lock_wait() == pytest.approx(ten * 3.4)
    with pytest.raises(ValueError):
        sched.set_idle_pollers(-1)


def test_message_lock_delay_orderings():
    """Figure 9's configuration ordering."""
    delays = {}
    for key, polling in (
            ("backoff2", PollingSpec(backoff_max_nops=2)),
            ("backoff32", PollingSpec(backoff_max_nops=32)),
            ("backoff10000", PollingSpec(backoff_max_nops=10000)),
            ("paused", PollingSpec(paused=True))):
        sched = EagerScheduler(polling)
        sched.set_idle_pollers(34)
        delays[key] = sched.message_lock_delay()
    assert delays["backoff2"] > delays["backoff32"] > delays["backoff10000"]
    assert delays["paused"] == 0.0
    # Huge backoff is nearly equivalent to paused (§5.4).
    assert delays["backoff10000"] < 0.1 * delays["backoff32"]


@pytest.mark.parametrize("polling, pollers", [
    (None, 8),                          # StarPU's default backoff
    (PollingSpec(paused=True), 0),      # fig9's paused baseline
], ids=["polling", "paused"])
def test_idle_workers_poll_a_live_runtime(polling, pollers):
    """Idle workers of a started runtime register as pollers, and only
    polling ones make runtime messages wait on the list lock."""
    cluster = Cluster(HENRI, 2)
    world = CommWorld(cluster, comm_placement="far")
    rt = RuntimeSystem(world, 0, n_workers=8, polling=polling).start()
    cluster.sim.run(until=0.001)
    assert rt.idle_workers == 8
    assert rt.scheduler.idle_pollers == pollers
    if pollers:
        assert rt.scheduler.message_lock_delay() > 0
    else:
        assert rt.scheduler.message_lock_delay() == 0.0
