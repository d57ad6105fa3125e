"""Fault-injection subsystem: plans, injector mechanics, crash recovery."""

import pytest

from repro.faults import (
    FaultPlan, ReliabilityConfig, TransportError, active_faults,
    fault_context, install_faults, clear_faults, parse_fault,
)
from repro.faults.plan import DegradedLink, FailStop, MessageLoss
from repro.hardware.topology import Cluster
from repro.kernels.blas import TileCost
from repro.mpi.comm import CommWorld
from repro.mpi.pingpong import PingPong
from repro.runtime.runtime import RuntimeSystem
from repro.runtime.task import Task


def _pingpong(plan=None, size=4096, reps=5, spec="henri"):
    import contextlib
    ctx = fault_context(plan) if plan is not None else contextlib.nullcontext()
    with ctx:
        cluster = Cluster(spec, n_nodes=2)
        world = CommWorld(cluster, comm_placement="near")
        return PingPong(world).run(size, reps=reps)


# -- plan construction and parsing ---------------------------------------

def test_parse_fault_specs():
    fault = parse_fault("fail_stop:node=1,at=0.01")
    assert fault == FailStop(node=1, at=0.01)
    fault = parse_fault("loss:loss_rate=0.05,start=0,duration=1")
    assert isinstance(fault, MessageLoss)
    assert fault.loss_rate == 0.05
    fault = parse_fault("link:src=0,dst=1,bw_factor=0.5,duration=1")
    assert isinstance(fault, DegradedLink)
    assert fault.bw_factor == 0.5


def test_parse_fault_rejects_unknown():
    with pytest.raises(ValueError):
        parse_fault("meteor:at=1")
    with pytest.raises(ValueError):
        parse_fault("no-colon-here")
    # Retired kinds and the retired corruption field name what is valid.
    for spec in ("fail_slow:node=0,freq_cap_hz=1e9",
                 "reg_flush:node=0,at=0", "crash_worker:node=0,at=0",
                 "degraded_link:src=0,dst=1,bw_factor=0.5"):
        with pytest.raises(ValueError,
                           match=r"\['fail_stop', 'link', 'loss'\]"):
            parse_fault(spec)
    with pytest.raises(ValueError, match="corrupt_rate"):
        parse_fault("loss:loss_rate=0.1,corrupt_rate=0.1")


def test_plan_roundtrip_dict():
    plan = (FaultPlan(seed=9)
            .fail_stop(node=1, at=0.02)
            .message_loss(loss_rate=0.1, start=0.0, duration=0.5)
            .degrade_link(0, 1, start=0.1, duration=0.2, bw_factor=0.5))
    clone = FaultPlan.from_dict(plan.to_dict())
    assert clone.seed == plan.seed
    assert clone.faults == plan.faults


def test_fault_context_stack():
    assert active_faults() is None
    plan = FaultPlan(seed=1)
    with fault_context(plan):
        assert active_faults().plan is plan
        inner = FaultPlan(seed=2)
        with fault_context(inner, ReliabilityConfig(max_retries=3)):
            assert active_faults().plan is inner
            assert active_faults().reliability.max_retries == 3
        assert active_faults().plan is plan
    assert active_faults() is None
    install_faults(plan)
    assert active_faults() is not None
    clear_faults()
    assert active_faults() is None


# -- injector mechanics ---------------------------------------------------

def test_cluster_without_faults_has_no_injector():
    cluster = Cluster("henri", n_nodes=2)
    assert cluster.fault_injector is None


def test_degraded_link_slows_transfers():
    base = _pingpong(size=65536)
    degraded = _pingpong(
        FaultPlan(seed=0).degrade_link(0, 1, start=0.0, duration=10.0,
                                       bw_factor=0.25, latency_factor=2.0),
        size=65536)
    assert degraded.median_latency > base.median_latency


def test_fail_stop_raises_transport_error():
    plan = FaultPlan(seed=0).fail_stop(node=1, at=1e-5)
    with pytest.raises(TransportError) as err:
        _pingpong(plan)
    assert "failed" in err.value.reason


def test_injector_timeline_logged():
    plan = FaultPlan(seed=0).fail_stop(node=1, at=1e-5)
    with fault_context(plan):
        cluster = Cluster("henri", n_nodes=2)
        cluster.sim.run(until=1e-3)
        log = cluster.fault_injector.log
    assert any(entry["fault"] == "FailStop" for entry in log)


# -- runtime fail-stop ---------------------------------------------------

def _submit_tasks(rt, n):
    tasks = [Task(name=f"t{i}", cost=TileCost("triad", 5e6, 1 << 20),
                  rank=0) for i in range(n)]
    for task in tasks:
        rt.submit(task)
    return tasks


def test_node_fail_stop_fails_wait_all():
    plan = FaultPlan(seed=0).fail_stop(node=0, at=2e-4)
    with fault_context(plan):
        cluster = Cluster("henri", n_nodes=1)
        world = CommWorld(cluster)
        rt = RuntimeSystem(world, 0, n_workers=2).start()
        _submit_tasks(rt, 50)
        done = rt.wait_all()
        world.sim.run()
    assert rt.crashed
    assert done.triggered and not done.ok
    with pytest.raises(TransportError):
        _ = done.value
