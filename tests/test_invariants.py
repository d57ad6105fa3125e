"""Fluid-solver / engine invariant guard (--check-invariants).

The guard (:mod:`repro.sim.invariants`) is strictly pay-for-what-you-
use: with the flag off the hot paths check one module-level bool.  On,
every rate solve verifies usage caches, rate bounds and capacity
conservation, every ``sample``-th solve re-solves the dirty component
with the reference solver (bitwise) and cross-checks the incremental
rates against a from-scratch global solve (to a relative tolerance),
and the event loop asserts heap monotonicity.  Violations raise
:class:`InvariantViolation` naming the offending connected component.
"""

import hashlib
import json
import math
import random

import pytest

from repro.sim import Flow, FluidNetwork, Resource, Simulator
from repro.sim import invariants as inv
from repro.sim.invariants import InvariantViolation, invariant_checks


def _net():
    sim = Simulator()
    return sim, FluidNetwork(sim)


# -- context manager --------------------------------------------------------

def test_invariant_checks_context_saves_and_restores():
    prev_enabled, prev_sample = inv.ENABLED, inv.SAMPLE_EVERY
    with invariant_checks(sample=4):
        assert inv.ENABLED is True
        assert inv.SAMPLE_EVERY == 4
        with invariant_checks():
            assert inv.ENABLED is True
            assert inv.SAMPLE_EVERY == 4  # inherited, not reset
    assert inv.ENABLED == prev_enabled
    assert inv.SAMPLE_EVERY == prev_sample


def test_guard_restored_even_when_body_raises():
    prev = inv.ENABLED
    with pytest.raises(RuntimeError, match="boom"):
        with invariant_checks(sample=2):
            raise RuntimeError("boom")
    assert inv.ENABLED == prev


# -- clean runs pass --------------------------------------------------------

def test_clean_fluid_run_passes_under_guard():
    sim, net = _net()
    link = Resource("link", 100.0)
    with invariant_checks(sample=1):
        flows = [net.transfer([link], size=100.0) for _ in range(4)]
        sim.run()
    for f in flows:
        assert f.done.triggered
        assert f.transferred == pytest.approx(100.0)


@pytest.mark.parametrize("seed", range(8))
def test_randomized_churn_under_guard(seed):
    """Acceptance stress: start/finish/capacity/demand churn across
    shared links, every solve checked and every 4th cross-checked
    globally — the incremental solver must never diverge."""
    rng = random.Random(seed)
    sim, net = _net()
    links = [Resource(f"l{i}", rng.uniform(10.0, 100.0)) for i in range(4)]
    flows = []

    def churn():
        for step in range(60):
            yield rng.uniform(0.01, 0.3)
            roll = rng.random()
            active = [f for f in flows if f.active]
            if roll < 0.55 or not active:
                path = rng.sample(links, rng.randint(1, 3))
                demand = math.inf if rng.random() < 0.5 \
                    else rng.uniform(5.0, 50.0)
                flows.append(net.transfer(
                    path, size=rng.uniform(1.0, 50.0), demand=demand,
                    label=f"f{step}"))
            elif roll < 0.8:
                net.set_demand(rng.choice(active), rng.uniform(1.0, 80.0))
            else:
                rng.choice(links).set_capacity(rng.uniform(5.0, 120.0))

    with invariant_checks(sample=4):
        sim.process(churn())
        sim.run()
    assert all(f.done.triggered for f in flows)


# -- corruption is caught and named -----------------------------------------

def test_corrupted_usage_cache_names_component():
    sim, net = _net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=100.0, label="victim")
    flow._usages = (2.0,)  # noqa: SLF001 - deliberate corruption
    with invariant_checks():
        with pytest.raises(InvariantViolation) as err:
            net.set_demand(flow, 50.0)
    message = str(err.value)
    assert "usage cache" in message
    assert "victim" in message
    assert "component[" in message


def test_rate_above_demand_cap_detected():
    sim, net = _net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=1e6, demand=10.0, label="greedy")
    flow.rate = 20.0
    with pytest.raises(InvariantViolation, match="exceeds its demand cap"):
        net._check_invariants([flow])  # noqa: SLF001


def test_invalid_rates_detected():
    sim, net = _net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=1e6)
    for bad in (-1.0, float("nan"), float("inf")):
        flow.rate = bad
        with pytest.raises(InvariantViolation, match="invalid rate"):
            net._check_invariants([flow])  # noqa: SLF001


def test_capacity_overcommit_names_resource():
    sim, net = _net()
    link = Resource("downlink", 100.0)
    flow = net.transfer([link], size=1e6)
    flow.rate = 250.0
    with pytest.raises(InvariantViolation,
                       match="'downlink' over capacity"):
        net._check_invariants([flow])  # noqa: SLF001


def test_sampled_global_cross_check_catches_divergence():
    """Corrupt a flow in a *different* component: the cheap per-dirty
    checks cannot see it, the sampled from-scratch solve does."""
    sim, net = _net()
    link_a, link_b = Resource("a", 100.0), Resource("b", 100.0)
    flow_a = net.transfer([link_a], size=1e6, label="stale")
    flow_b = net.transfer([link_b], size=1e6, label="trigger")
    flow_a.rate = 50.0  # silently wrong; still within every cheap bound
    with invariant_checks(sample=1):
        with pytest.raises(InvariantViolation,
                           match="diverged from global solve"):
            net.set_demand(flow_b, 40.0)


def test_reference_cross_check_catches_fast_path_divergence(monkeypatch):
    """A fast path one ulp off the reference solver trips the bitwise
    re-solve of the same dirty list."""
    sim, net = _net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=1e6, demand=40.0, label="skewed")
    solve = FluidNetwork._assign_rates

    def off_by_an_ulp(self, dirty, touched):
        solve(self, dirty, touched)
        for f in dirty:
            f.rate = math.nextafter(f.rate, 0.0)

    monkeypatch.setattr(FluidNetwork, "_assign_rates", off_by_an_ulp)
    with invariant_checks(sample=1):
        with pytest.raises(InvariantViolation,
                           match="diverged from the reference solver"):
            net.set_demand(flow, 30.0)
    # The reference's rate was not left behind.
    assert flow.rate == math.nextafter(30.0, 0.0)


def test_global_cross_check_tolerates_rounding():
    """The global re-solve may round differently from a component
    solve; a few-ulp difference is not a violation and leaves every
    rate exactly as the fast path set it."""
    sim, net = _net()
    link_a, link_b = Resource("a", 100.0), Resource("b", 100.0)
    flow_a = net.transfer([link_a], size=1e6, label="rounded")
    flow_b = net.transfer([link_b], size=1e6, label="trigger")
    flow_a.rate = 100.0 * (1.0 - 4e-16)  # a global pass's rounding
    with invariant_checks(sample=1):
        net.set_demand(flow_b, 40.0)
    assert flow_a.rate == 100.0 * (1.0 - 4e-16)
    assert flow_b.rate == 40.0


def test_cross_check_restores_every_rate_before_raising():
    sim, net = _net()
    link_a, link_b = Resource("a", 100.0), Resource("b", 100.0)
    link_c = Resource("c", 100.0)
    flow_a = net.transfer([link_a], size=1e6, label="stale")
    flow_c = net.transfer([link_c], size=1e6, label="also-stale")
    flow_b = net.transfer([link_b], size=1e6, label="trigger")
    flow_a.rate = 50.0
    flow_c.rate = 25.0
    with invariant_checks(sample=1):
        with pytest.raises(InvariantViolation, match="'stale'"):
            net.set_demand(flow_b, 40.0)
    assert (flow_a.rate, flow_b.rate, flow_c.rate) == (50.0, 40.0, 25.0)


# -- violations are never swallowed -----------------------------------------

def test_violation_inside_a_process_fails_the_run():
    """A check tripped inside a sim process must surface from
    ``sim.run()``, not quietly fail that one process."""
    sim, net = _net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=1e6, label="victim")

    def corrupt():
        yield 1.0
        flow._usages = (2.0,)  # noqa: SLF001 - deliberate corruption
        net.set_demand(flow, 50.0)

    sim.process(corrupt())
    with invariant_checks():
        with pytest.raises(InvariantViolation, match="usage cache"):
            sim.run()


def test_checks_never_change_results():
    """One fig10 --fast point gives the same result with and without
    the guard (it used to trip a bitwise global cross-check on
    rounding, failing the point)."""
    from repro.core.experiments import _fig10_point

    def digest():
        point = _fig10_point(dict(spec="henri", nw=24, cg_kwargs={},
                                  gemm_kwargs={}))
        return hashlib.sha256(
            json.dumps(point, sort_keys=True).encode()).hexdigest()

    plain = digest()
    with invariant_checks():
        checked = digest()
    assert checked == plain


# -- engine heap monotonicity -----------------------------------------------

def test_engine_detects_time_moving_backwards():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with invariant_checks():
        sim._now = 5.0  # noqa: SLF001 - simulate heap corruption
        with pytest.raises(InvariantViolation, match="moved backwards"):
            sim.run()


def test_engine_clean_run_unaffected():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    with invariant_checks():
        sim.run()
    assert fired == [1, 2]


# -- observability ----------------------------------------------------------

def test_invariant_counters_exported():
    from repro.obs import telemetry_context

    with telemetry_context(trace=False, metrics=True) as tele:
        with invariant_checks(sample=1):
            sim, net = _net()
            net.transfer([Resource("link", 100.0)], size=100.0)
            sim.run()
        checks = tele.registry.counter("fluid.invariant_checks").value
        assert checks >= 1.0
        assert tele.registry.counter(
            "fluid.invariant_violations").value == 0.0


def test_violation_counter_increments():
    from repro.obs import telemetry_context

    with telemetry_context(trace=False, metrics=True) as tele:
        sim, net = _net()
        flow = net.transfer([Resource("link", 100.0)], size=1e6)
        flow.rate = -1.0
        with pytest.raises(InvariantViolation):
            net._check_invariants([flow])  # noqa: SLF001
        assert tele.registry.counter(
            "fluid.invariant_violations").value == 1.0
