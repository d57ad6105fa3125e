"""Fluid-solver micro-benchmark drivers for ``test_fluid_solver.py``.

They time the solver itself, not only through the figure sweeps that
happen to exercise it (those are ``perfbench/``'s workloads).

Four shapes:

* :func:`churn` — many small components (fig10-style: one bus per
  socket) under start/finish/capacity churn, guarding the rate solver
  on mid-size components and the dirty-component bookkeeping.
* :func:`churn_wide` — a few wide components (fabric-style: dozens of
  flows sharing a bus *and* a link) re-solved repeatedly under
  capacity wiggles, guarding the rate solver on wide components and
  the dirty-component memo.
* :func:`tiny_components` — 1–2-flow component churn, guarding the
  rate solver's per-solve overhead on the smallest components.
* :func:`sampler_dense` — dense periodic sampling under activity
  churn, guarding the epoch-batched sampler.
"""

from __future__ import annotations

from typing import Tuple

from repro.sim.engine import Simulator
from repro.sim.fluid import Flow, FluidNetwork, Resource
from repro.sim.trace import PeriodicSampler

__all__ = ["churn", "churn_wide", "sampler_dense", "tiny_components"]


def churn(n_components: int = 16, per: int = 12,
          rounds: int = 40) -> Tuple[int, float]:
    """Drive isolated bus components through start/finish/capacity churn.

    Returns (events, total simulated seconds) so callers can sanity
    check that all work actually happened.
    """
    sim = Simulator()
    net = FluidNetwork(sim)
    buses = [Resource(f"bus{i}", 100.0) for i in range(n_components)]
    events = 0
    for r in range(rounds):
        flows = [net.start_flow(Flow([buses[i % n_components]],
                                     size=50.0 + (i % per),
                                     demand=40.0))
                 for i in range(n_components * per)]
        events += len(flows)
        # Mid-round capacity wiggle on every component (the fig10
        # set_core_activity pattern), then drain.
        sim.run(until=sim.now + 0.2)
        for i, bus in enumerate(buses):
            bus.set_capacity(90.0 + (r + i) % 20)
            events += 1
        sim.run()
        assert all(f.done.triggered for f in flows)
    return events, sim.now


def tiny_components(n_components: int = 200, rounds: int = 60
                    ) -> Tuple[int, float]:
    """1–2-flow component churn (the fig10 per-socket regime).

    Every component stays at one or two flows, so per-solve setup
    dominates each solve; the churn itself (start/complete/capacity
    wiggles) exercises the dirty-component bookkeeping and completion
    rescheduling around it.
    """
    sim = Simulator()
    net = FluidNetwork(sim)
    buses = [Resource(f"bus{i}", 100.0) for i in range(n_components)]
    events = 0
    for r in range(rounds):
        flows = []
        for i, bus in enumerate(buses):
            flows.append(net.start_flow(Flow(
                [bus], size=30.0 + (i % 7), demand=25.0)))
            if i % 2:   # every other component gets a contending peer
                flows.append(net.start_flow(Flow(
                    [bus], size=18.0 + (i % 5), demand=40.0)))
        events += len(flows)
        sim.run(until=sim.now + 0.3)
        for i, bus in enumerate(buses):
            bus.set_capacity(85.0 + (r + i) % 30)
            events += 1
        sim.run()
        assert all(f.done.triggered for f in flows)
    return events, sim.now


def sampler_dense(period: float = 1e-4, wiggles: int = 2000,
                  gap: float = 2.3e-3) -> Tuple[int, float]:
    """Dense periodic sampling of a frequency model under activity churn.

    A :class:`~repro.sim.trace.PeriodicSampler` probes every core of a
    ``henri`` machine at *period* while a driver toggles core activity
    (the Figure-2 pattern).  With no telemetry sink installed the
    sampler runs epoch-batched — this case pins the cost of the batch
    emission path.
    """
    from repro.hardware.frequency import CoreActivity, FrequencyModel
    from repro.hardware.presets import get_preset

    spec = get_preset("henri")
    socket_of_core = {c: (0 if c < spec.n_cores // 2 else 1)
                      for c in range(spec.n_cores)}
    freq = FrequencyModel(spec, socket_of_core)
    sim = Simulator()
    probes = {f"core{c}": (lambda cid=c: freq.core_hz(cid) / 1e9)
              for c in range(spec.n_cores)}
    probes["uncore_s0"] = lambda: freq.uncore_hz(0) / 1e9
    sampler = PeriodicSampler(sim, probes, period=period,
                              epoch_sources=(freq,)).start()

    def wiggle():
        for k in range(wiggles):
            core = k % spec.n_cores
            freq.set_activity(core, CoreActivity.IDLE if k % 3 == 2
                              else (CoreActivity.AVX512 if k % 3
                                    else CoreActivity.SCALAR))
            yield gap
    sim.process(wiggle())
    sim.run()
    trace = sampler.stop()
    samples = sum(len(trace.times(name)) for name in trace.names())
    return samples, sim.now


def churn_wide(per: int = 128, groups: int = 16, rounds: int = 6,
               wiggles: int = 40) -> Tuple[int, float]:
    """Re-solve one wide fabric component under trunk-capacity churn.

    Every flow crosses a shared trunk plus its group's bus and link, so
    all *per* flows form one connected component.  Each round starts
    the block once and then wiggles the trunk capacity *wiggles* times:
    every wiggle re-solves the same membership, which is exactly the
    access pattern the dirty-component memo amortizes.
    """
    sim = Simulator()
    net = FluidNetwork(sim)
    trunk = Resource("trunk", 5000.0)
    buses = [Resource(f"bus{i}", 400.0) for i in range(groups)]
    links = [Resource(f"link{i}", 250.0) for i in range(groups)]
    events = 0
    for r in range(rounds):
        flows = [net.start_flow(Flow(
                    [trunk, buses[i % groups], links[i % groups]],
                    size=400.0 + (i % per),
                    demand=6.0 + (i % 5),
                    usage={links[i % groups]: 1.5}))
                 for i in range(per)]
        events += len(flows)
        for k in range(wiggles):
            sim.run(until=sim.now + 0.05)
            trunk.set_capacity(4800.0 + (r + k) % 400)
            events += 1
        sim.run()
        assert all(f.done.triggered for f in flows)
    return events, sim.now
