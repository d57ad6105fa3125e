"""Reliable transport: ack/timeout/retransmit semantics.

Property tests (hypothesis, derandomized in conftest) pin down the two
contract-level guarantees of the fault-injection redesign:

* zero loss — the reliable path is *pay-for-what-you-use*: timings are
  bit-identical to the original (injector-free) protocol path;
* any loss — a transfer either completes or raises
  :class:`TransportError` after bounded retries; it never hangs.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    FaultPlan, ReliabilityConfig, TransportError, fault_context,
)
from repro.faults.reliability import BACKOFF_FACTOR, MAX_BACKOFF_S
from repro.hardware.topology import Cluster
from repro.mpi.comm import CommWorld
from repro.mpi.p2p import P2PContext
from repro.mpi.pingpong import PingPong


def _world(plan=None, reliability=None, spec="henri"):
    ctx = (fault_context(plan, reliability) if plan is not None
           else contextlib.nullcontext())
    with ctx:
        cluster = Cluster(spec, n_nodes=2)
        world = CommWorld(cluster, comm_placement="near")
    return world


def _records(plan=None, reliability=None, size=4096, n=6):
    world = _world(plan, reliability)
    p2p = P2PContext(world)
    bufs = [world.rank(r).buffer(size, 0, f"b{r}") for r in (0, 1)]
    for i in range(n):
        p2p.isend(0, 1, bufs[0], tag=i)
        p2p.irecv(1, 0, bufs[1], tag=i)
    world.sim.run()
    if p2p.failures:
        raise p2p.failures[0]
    return p2p.transfers


def _record_tuple(rec):
    return (rec.size, rec.protocol, rec.start, rec.end, rec.retries,
            rec.timeouts, sorted(rec.components.items()))


# -- pay-for-what-you-use -------------------------------------------------

@pytest.mark.parametrize("size", [4, 4096, 1 << 20])
def test_zero_loss_is_bit_identical(size):
    plain = [_record_tuple(r) for r in _records(size=size)]
    armed = [_record_tuple(r)
             for r in _records(FaultPlan(seed=0), size=size)]
    assert plain == armed


def test_zero_loss_pingpong_bit_identical():
    base = PingPong(_world()).run(65536, reps=8)
    armed = PingPong(_world(FaultPlan(seed=3))).run(65536, reps=8)
    assert list(base.latencies) == list(armed.latencies)


# -- bounded-loss liveness -------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20),
       loss=st.floats(0.01, 0.6),
       size=st.sampled_from([4, 4096, 262144]))
def test_lossy_transfer_completes_or_raises(seed, loss, size):
    plan = FaultPlan(seed=seed).message_loss(loss_rate=loss, start=0.0,
                                             duration=100.0)
    rel = ReliabilityConfig(max_retries=6)
    try:
        records = _records(plan, rel, size=size)
    except TransportError as err:
        assert err.retries == rel.max_retries
    else:
        assert len(records) == 6
        for rec in records:
            assert rec.end >= rec.start
            assert rec.timeouts >= rec.retries


def test_lossy_run_is_deterministic_per_seed():
    plan = FaultPlan(seed=11).message_loss(loss_rate=0.3, start=0.0,
                                           duration=100.0)
    a = [_record_tuple(r) for r in _records(plan)]
    b = [_record_tuple(r) for r in _records(plan)]
    assert a == b
    other = FaultPlan(seed=12).message_loss(loss_rate=0.3, start=0.0,
                                            duration=100.0)
    assert [_record_tuple(r) for r in _records(other)] != a


def test_loss_costs_time_and_counts_retries():
    plan = FaultPlan(seed=2).message_loss(loss_rate=0.5, start=0.0,
                                          duration=100.0)
    records = _records(plan, ReliabilityConfig(max_retries=50))
    assert sum(r.retries for r in records) > 0
    lossy = [r for r in records if r.retries]
    for rec in lossy:
        assert rec.components.get("retransmit_wait", 0.0) > 0.0


def test_certain_loss_raises_transport_error():
    plan = FaultPlan(seed=0).message_loss(loss_rate=1.0, start=0.0,
                                          duration=100.0)
    with pytest.raises(TransportError) as err:
        _records(plan, ReliabilityConfig(max_retries=4))
    assert err.value.retries == 4
    assert err.value.timeouts >= 4


def test_p2p_propagates_failure_to_both_sides():
    plan = FaultPlan(seed=0).fail_stop(node=1, at=1e-6)
    world = _world(plan)
    p2p = P2PContext(world)
    a = world.rank(0).buffer(4096, 0, "a")
    b = world.rank(1).buffer(4096, 0, "b")
    send = p2p.isend(0, 1, a)
    recv = p2p.irecv(1, 0, b)
    world.sim.run()
    assert send.done.triggered and not send.done.ok
    assert recv.done.triggered and not recv.done.ok
    assert p2p.failures and isinstance(p2p.failures[0], TransportError)


# -- backoff config --------------------------------------------------------

def test_retransmit_timeout_backs_off_exponentially():
    assert BACKOFF_FACTOR == 2.0
    rel = ReliabilityConfig(timeout_s=1e-4)
    rtos = [rel.retransmit_timeout(n) for n in range(1, 5)]
    assert rtos == [1e-4, 2e-4, 4e-4, 8e-4]


def test_retransmit_timeout_respects_cap():
    assert MAX_BACKOFF_S == 10e-3
    rel = ReliabilityConfig(timeout_s=1e-4)
    assert rel.retransmit_timeout(7) == 6.4e-3
    assert rel.retransmit_timeout(8) == MAX_BACKOFF_S
    assert rel.retransmit_timeout(20) == MAX_BACKOFF_S


def test_invalid_reliability_rejected():
    with pytest.raises(ValueError):
        ReliabilityConfig(max_retries=-1)
    with pytest.raises(ValueError):
        ReliabilityConfig(timeout_s=0.0)
