"""Tests for randomness, traces and counters (support modules)."""

import numpy as np
import pytest

from repro.hardware import CycleCounters
from repro.sim import PeriodicSampler, RandomStreams, Simulator, Trace, noisy
from repro.sim.randomness import Generator


# -- randomness --------------------------------------------------------------

def _draws(gen, n):
    return [gen.random() for _ in range(n)]


def test_streams_reproducible():
    a = _draws(RandomStreams(7).stream("net"), 5)
    b = _draws(RandomStreams(7).stream("net"), 5)
    assert a == b


def test_streams_independent_by_name():
    rs = RandomStreams(7)
    a = _draws(rs.stream("net"), 5)
    b = _draws(rs.stream("kernel"), 5)
    assert a != b


def test_stream_is_cached():
    rs = RandomStreams(0)
    assert rs.stream("x") is rs.stream("x")


def test_spawn_derives_independent_families():
    rs = RandomStreams(0)
    child1 = _draws(rs.spawn("node0").stream("net"), 3)
    child2 = _draws(rs.spawn("node1").stream("net"), 3)
    assert child1 != child2


def test_noisy_statistics():
    rng = Generator(0)
    samples = np.array([noisy(100.0, 0.05, rng) for _ in range(4000)])
    assert samples.mean() == pytest.approx(100.0, rel=0.02)
    assert samples.std() == pytest.approx(5.0, rel=0.2)
    assert (samples > 0).all()


def test_noisy_zero_sigma_identity():
    rng = Generator(0)
    assert noisy(42.0, 0.0, rng) == 42.0


# -- traces ----------------------------------------------------------------

def test_trace_record_and_query():
    t = Trace()
    t.record("f", 0.0, 1.0)
    t.record("f", 1.0, 2.0)
    t.record("g", 0.5, 9.0)
    assert t.names() == ["f", "g"]
    assert t.times("f") == [0.0, 1.0]
    assert t.values("f") == [1.0, 2.0]
    assert t.last("f") == 2.0
    assert t.last("missing") is None
    assert t.window("f", 0.5, 1.5) == [2.0]
    assert t.mean("f", 0.0, 2.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        t.mean("f", 5.0, 6.0)


def test_periodic_sampler():
    sim = Simulator()
    state = {"v": 0.0}
    sampler = PeriodicSampler(sim, {"v": lambda: state["v"]},
                              period=0.1).start()
    sim.schedule(0.25, lambda: state.update(v=5.0))
    sim.run(until=0.55)
    sampler.stop()
    sim.run(until=1.0)
    trace = sampler.trace
    values = trace.values("v")
    assert len(values) >= 5
    assert values[0] == 0.0
    assert trace.last("v") == 5.0
    # No samples after stop (beyond the one in flight).
    assert max(trace.times("v")) <= 0.7


def test_sampler_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicSampler(sim, {}, period=0.0)
    sampler = PeriodicSampler(sim, {}, period=1.0).start()
    with pytest.raises(RuntimeError):
        sampler.start()


# -- counters --------------------------------------------------------------

def test_counters_record_and_delta():
    counters = CycleCounters([0, 1])
    counters.record(0, busy=1.0, mem_stall=0.6, flops=100, bytes_moved=50)
    counters.record(1, busy=2.0, mem_stall=0.0)
    before = counters.snapshot()
    counters.record(0, busy=0.5, mem_stall=0.1)
    delta = counters.delta(before, cores=[0])
    assert delta.busy == pytest.approx(0.5)
    assert delta.mem_stall == pytest.approx(0.1)
    total = counters.delta({})
    assert total.busy == pytest.approx(3.5)


def test_counters_stall_fraction():
    counters = CycleCounters([0])
    counters.record(0, busy=2.0, mem_stall=1.0)
    agg = counters.delta({})
    assert CycleCounters.stall_fraction(agg) == pytest.approx(0.5)
    from repro.hardware.counters import CoreCounterState
    assert CycleCounters.stall_fraction(CoreCounterState()) == 0.0


def test_counters_validation():
    counters = CycleCounters([0])
    with pytest.raises(ValueError):
        counters.record(0, busy=-1.0)
    with pytest.raises(ValueError):
        counters.record(0, busy=1.0, mem_stall=2.0)
