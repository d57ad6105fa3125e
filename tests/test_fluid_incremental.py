"""Tests for the incremental (dirty-component) fluid solver and the
accounting bugfixes that rode along with it.

Covers:

* regression tests for the three fluid-layer bugs — ``stop_flow`` not
  firing ``on_flow_end``, duplicate resources in a path being counted
  inconsistently, and ``set_demand`` silently mutating inactive flows;
* edge cases the incremental rework must not regress — zero-size flows,
  same-instant completion cascades, starved flows rescheduled after a
  capacity restore, deterministic same-instant completion order;
* a property test cross-checking dirty-component rates against a
  reference global recompute on randomized flow graphs;
* a churn property test holding every solve of the fast path to the
  reference solver under the invariant guard;
* the engine's generation-based heap-entry reuse (``reschedule``);
* ``P2PContext.cancel`` for unmatched requests.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.telemetry import telemetry_context
from repro.sim import Flow, FluidNetwork, Resource, Simulator
from repro.sim.engine import SimulationError
from repro.sim.invariants import invariant_checks


def make_net():
    sim = Simulator()
    return sim, FluidNetwork(sim)


# ---------------------------------------------------------------------------
# Bugfix regressions
# ---------------------------------------------------------------------------

def test_stop_flow_fires_flow_end_hook():
    """Stopped flows must close telemetry like completed ones (they used
    to vanish via _deactivate, leaking spans and skewing counters)."""
    with telemetry_context(trace=False) as tele:
        sim, net = make_net()
        link = Resource("link", 100.0)
        bg = net.start_flow(Flow([link], size=None, label="bg"))
        fg = net.transfer([link], size=50.0)
        sim.run(until=0.25)
        net.stop_flow(bg)
        sim.run()
        assert fg.done.triggered
        started = tele.registry.counter("fluid.flows_started").value
        completed = tele.registry.counter("fluid.flows_completed").value
        aborted = tele.registry.counter("fluid.flows_aborted").value
        assert started == completed == 2.0
        assert aborted == 1.0


def test_stop_flow_closes_wire_span_with_aborted_flag():
    """On a bound cluster the stopped flow's wire span carries aborted."""
    from repro.hardware import Cluster, HENRI
    with telemetry_context() as tele:
        cluster = Cluster(HENRI, 2)
        wire = cluster.wire(0, 1)
        bg = cluster.net.start_flow(Flow([wire], size=None, label="bg"))
        cluster.sim.run(until=0.1)
        cluster.net.stop_flow(bg)
        events = tele.tracer.to_payload()["traceEvents"]
        spans = [ev for ev in events
                 if ev.get("ph") == "X" and ev.get("name") == "bg"]
        assert len(spans) == 1
        assert spans[0]["args"]["aborted"] is True


def test_stop_inactive_flow_is_noop_and_fires_no_hook():
    with telemetry_context(trace=False) as tele:
        sim, net = make_net()
        link = Resource("link", 10.0)
        flow = net.transfer([link], size=10.0)
        sim.run()
        completed = tele.registry.counter("fluid.flows_completed").value
        assert net.stop_flow(flow) == flow.transferred
        assert tele.registry.counter("fluid.flows_completed").value \
            == completed
        assert tele.registry.counter("fluid.flows_aborted").value == 0.0


def test_duplicate_resource_in_path_counted_once():
    """A [membus, membus] path used to subtract capacity twice in _fix
    but count once in the denominator and utilization()."""
    sim, net = make_net()
    membus = Resource("membus", 100.0)
    flow = net.transfer([membus, membus], size=200.0)
    assert flow.resources == (membus,)
    assert flow.rate == pytest.approx(100.0)
    assert net.utilization(membus) == pytest.approx(1.0)
    sim.run()
    assert flow.done.value == pytest.approx(2.0)


def test_duplicate_resource_shares_consistently_with_second_flow():
    sim, net = make_net()
    membus = Resource("membus", 100.0)
    dup = net.transfer([membus, membus], size=1e9)
    other = net.transfer([membus], size=1e9)
    # Both are single-crossing flows of the same bus: equal split.
    assert dup.rate == pytest.approx(50.0)
    assert other.rate == pytest.approx(50.0)
    assert net.utilization(membus) == pytest.approx(1.0)


def test_set_demand_on_inactive_flow_raises():
    sim, net = make_net()
    link = Resource("link", 100.0)
    flow = Flow([link], size=10.0, demand=5.0)
    with pytest.raises(SimulationError):
        net.set_demand(flow, 1.0)
    assert flow.demand == 5.0  # untouched


def test_set_demand_on_completed_flow_raises():
    sim, net = make_net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=10.0)
    sim.run()
    assert flow.done.triggered
    with pytest.raises(SimulationError):
        net.set_demand(flow, 1.0)


# ---------------------------------------------------------------------------
# Edge cases the incremental solver must not regress
# ---------------------------------------------------------------------------

def test_zero_size_flow_does_not_disturb_others():
    sim, net = make_net()
    link = Resource("link", 100.0)
    other = net.transfer([link], size=1e9)
    assert other.rate == pytest.approx(100.0)
    zero = net.transfer([link], size=0.0)
    assert zero.done.triggered
    assert not zero.active
    assert other.rate == pytest.approx(100.0)


def test_same_instant_completion_cascade():
    """Flows sized to finish at the same instant complete in one
    fixed-point pass; the survivor picks up the freed capacity."""
    sim, net = make_net()
    link = Resource("link", 90.0)
    a = net.transfer([link], size=30.0)   # 30 each at t=0
    b = net.transfer([link], size=30.0)
    c = net.transfer([link], size=60.0)
    sim.run()
    assert a.done.value == pytest.approx(1.0)
    assert b.done.value == pytest.approx(1.0)
    # c: 30 B by t=1, remaining 30 B at full 90 B/s.
    assert c.done.value == pytest.approx(1.0 + 30.0 / 90.0)


def test_same_instant_completion_order_is_insertion_order():
    orders = []
    for _ in range(2):
        sim, net = make_net()
        link = Resource("link", 100.0)
        order = []
        flows = [net.transfer([link], size=50.0, label=f"f{i}")
                 for i in range(5)]
        for i, f in enumerate(flows):
            f.done.add_callback(lambda ev, i=i: order.append(i))
        sim.run()
        assert all(f.done.triggered for f in flows)
        orders.append(order)
    assert orders[0] == orders[1] == [0, 1, 2, 3, 4]


def test_starved_flow_rescheduled_after_capacity_restore():
    """A flow frozen at rate 0 has no completion event; restoring
    capacity must re-arm it."""
    sim, net = make_net()
    link = Resource("link", 10.0)
    # Demand-limited at exactly the full capacity (usage 2 x rate 5).
    hog = net.start_flow(Flow([link], size=None, demand=5.0, usage=2.0))
    # Negligible-usage flow: frozen at level 0 on the drained resource.
    starved = net.start_flow(
        Flow([link], size=100.0, demand=50.0, usage=1e-9))
    assert starved.rate == 0.0
    sim.run(until=1.0)
    assert starved.transferred == 0.0
    assert not starved.done.triggered
    link.set_capacity(20.0)
    assert starved.rate == pytest.approx(50.0)
    sim.run()
    assert starved.done.triggered
    assert starved.done.value == pytest.approx(3.0)  # 100 B at 50 B/s


def test_capacity_change_only_recomputes_touched_component():
    sim, net = make_net()
    r1 = Resource("r1", 100.0)
    r2 = Resource("r2", 100.0)
    a = net.transfer([r1], size=1e9)
    b = net.transfer([r2], size=1e9, demand=40.0)
    r1.set_capacity(50.0)
    assert a.rate == pytest.approx(50.0)
    assert b.rate == pytest.approx(40.0)


def test_components_merge_when_bridging_flow_starts():
    sim, net = make_net()
    r1 = Resource("r1", 100.0)
    r2 = Resource("r2", 60.0)
    a = net.transfer([r1], size=1e9)
    b = net.transfer([r2], size=1e9)
    assert (a.rate, b.rate) == (pytest.approx(100.0), pytest.approx(60.0))
    bridge = net.transfer([r1, r2], size=1e9)
    # One component now: r2 splits between b and bridge; a gets the rest
    # of r1.
    assert bridge.rate == pytest.approx(30.0)
    assert b.rate == pytest.approx(30.0)
    assert a.rate == pytest.approx(70.0)


def test_flows_through_uses_adjacency():
    sim, net = make_net()
    r1 = Resource("r1", 100.0)
    r2 = Resource("r2", 100.0)
    a = net.transfer([r1], size=1e9)
    b = net.transfer([r1, r2], size=1e9)
    assert net.flows_through(r1) == [a, b]
    assert net.flows_through(r2) == [b]
    net.stop_flow(a)
    assert net.flows_through(r1) == [b]
    assert net.flows_through(Resource("unused", 1.0)) == []


# ---------------------------------------------------------------------------
# Property test: dirty-component rates == reference global recompute
# ---------------------------------------------------------------------------

def _reference_global_rates(flows):
    """The pre-incremental solver: one global progressive-filling pass
    over *flows* (in activation order).  Returns {flow: rate} without
    touching the network's state."""
    _REL_TOL = 1e-9
    rates = {}
    unfixed = dict.fromkeys(flows)
    for flow in list(unfixed):
        if not flow.resources:
            rates[flow] = flow.demand
            unfixed.pop(flow)

    avail, res_flows = {}, {}
    for flow in unfixed:
        for res in flow.resources:
            if res not in avail:
                avail[res] = res.capacity
                res_flows[res] = {}
            res_flows[res][flow] = None

    def fix(flow, rate):
        rates[flow] = max(0.0, rate)
        for res in flow.resources:
            avail[res] = max(0.0, avail[res] - rates[flow]
                             * flow.usage_on(res))
            res_flows[res].pop(flow, None)

    while unfixed:
        level = math.inf
        for res, fset in res_flows.items():
            if not fset:
                continue
            denom = sum(f.weight * f.usage_on(res) for f in fset)
            if denom > 0:
                level = min(level, avail[res] / denom)
        if not math.isfinite(level):
            for flow in unfixed:
                fix(flow, flow.demand)
            break
        demand_limited = [f for f in unfixed
                          if f.demand <= f.weight * level * (1 + _REL_TOL)]
        if demand_limited:
            for flow in demand_limited:
                fix(flow, flow.demand)
                unfixed.pop(flow)
            continue
        froze = False
        for res, fset in list(res_flows.items()):
            if not fset:
                continue
            denom = sum(f.weight * f.usage_on(res) for f in fset)
            if denom <= 0:
                continue
            if avail[res] / denom <= level * (1 + _REL_TOL):
                for flow in list(fset):
                    if flow in unfixed:
                        fix(flow, flow.weight * level)
                        unfixed.pop(flow)
                        froze = True
        if not froze:
            for flow in list(unfixed):
                fix(flow, flow.weight * level)
            unfixed.clear()
    return rates


op_spec = st.tuples(
    st.sampled_from(["start", "stop", "demand", "capacity"]),
    st.floats(min_value=0.1, max_value=100.0),   # demand / new capacity
    st.floats(min_value=0.25, max_value=4.0),    # weight
    st.floats(min_value=0.5, max_value=2.0),     # usage multiplier
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3,
             unique=True),                        # resource indices
)


@settings(max_examples=120, deadline=None)
@given(
    caps=st.lists(st.floats(min_value=1.0, max_value=200.0),
                  min_size=6, max_size=6),
    ops=st.lists(op_spec, min_size=1, max_size=24),
)
def test_dirty_component_rates_match_global_recompute(caps, ops):
    """After an arbitrary op sequence, the incrementally maintained
    rates equal (a) a from-scratch solve of the same flows on a fresh
    network, bit for bit, and (b) the reference global algorithm within
    1e-9 relative.

    (b) is not asserted exact: the global pass interleaves progressive-
    filling rounds of unrelated components, so its capacity subtractions
    can associate differently by a few ulps — the allocations are the
    same, the roundings need not be.
    """
    sim = Simulator()
    net = FluidNetwork(sim)
    resources = [Resource(f"r{i}", caps[i]) for i in range(6)]
    live = []
    for kind, value, weight, usage, idxs in ops:
        live = [f for f in live if f.active]
        if kind == "start" or not live:
            path = [resources[i] for i in idxs]
            live.append(net.transfer(
                path, size=1e12, demand=value, weight=weight, usage=usage))
        elif kind == "stop":
            net.stop_flow(live[len(idxs) % len(live)])
        elif kind == "demand":
            net.set_demand(live[len(idxs) % len(live)], value)
        else:
            resources[idxs[0]].set_capacity(value)

    active = [f for f in net._flows]  # noqa: SLF001 - activation order

    # (a) Fresh network, same flows in the same order: exact equality.
    # Any stale cache / adjacency / dirty-tracking bug shows up here.
    sim2 = Simulator()
    net2 = FluidNetwork(sim2)
    res_clone = {res: Resource(res.name, res.capacity)
                 for res in resources}
    clones = [Flow([res_clone[r] for r in f.resources], size=f.size,
                   demand=f.demand, weight=f.weight,
                   usage=f._usage_scalar)  # noqa: SLF001 - scalar usages only
              for f in active]
    for clone in clones:
        net2.start_flow(clone)
    # The last start already recomputed globally over everything it
    # connects to; isolated components were each solved on their start.
    for f, clone in zip(active, clones):
        assert f.rate == clone.rate, (f.rate, clone.rate)

    # (b) Reference global algorithm: equal within 1e-9 relative.
    reference = _reference_global_rates(active)
    for f in active:
        assert math.isclose(f.rate, reference[f], rel_tol=1e-9,
                            abs_tol=1e-12), (f.rate, reference[f])


@settings(max_examples=60, deadline=None)
@given(
    cap=st.floats(min_value=10.0, max_value=1000.0),
    sizes=st.lists(st.floats(min_value=1.0, max_value=1000.0),
                   min_size=1, max_size=6),
)
def test_conservation_with_incremental_solver(cap, sizes):
    sim, net = make_net()
    link = Resource("link", cap)
    flows = [net.transfer([link], size=s) for s in sizes]
    sim.run()
    for f, s in zip(flows, sizes):
        assert f.done.triggered
        assert f.transferred == pytest.approx(s, rel=1e-6)
    assert sim.now * cap == pytest.approx(sum(sizes), rel=1e-6)


# ---------------------------------------------------------------------------
# Property test: the fast path matches the reference solver, bit for bit
# ---------------------------------------------------------------------------

churn_op_spec = st.tuples(
    st.sampled_from(["start", "start", "greedy", "stop", "demand",
                     "capacity", "advance", "empty"]),
    st.floats(min_value=0.1, max_value=100.0),   # demand / capacity / dt
    st.floats(min_value=0.25, max_value=4.0),    # weight
    st.floats(min_value=0.5, max_value=2.0),     # usage multiplier
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3,
             unique=True),                        # resource indices
    st.floats(min_value=5.0, max_value=500.0),   # size
)


@settings(max_examples=60, deadline=None)
@given(
    caps=st.lists(st.floats(min_value=1.0, max_value=200.0),
                  min_size=6, max_size=6),
    ops=st.lists(churn_op_spec, min_size=1, max_size=24),
)
def test_fast_path_matches_reference_under_churn(caps, ops):
    """Randomized start/stop/demand/capacity/advance churn — including
    path-limited (infinite-demand) and empty-path, finite-demand
    flows — with the invariant guard
    cross-checking *every* solve: the fast path must reproduce the
    reference solver's rates bit for bit on the same dirty list, and
    the incremental rates must match a from-scratch global solve.
    """
    sim = Simulator()
    net = FluidNetwork(sim)
    res = [Resource(f"r{i}", caps[i]) for i in range(6)]
    flows = []
    with invariant_checks(sample=1):
        for kind, value, weight, usage, idxs, size in ops:
            live = [f for f in flows if f.active]
            if kind == "advance":
                sim.run(until=sim.now + value / 50.0)
            elif kind == "empty":
                flows.append(net.transfer([], size=size, demand=value))
            elif kind in ("start", "greedy") or not live:
                demand = math.inf if kind == "greedy" else value
                flows.append(net.transfer(
                    [res[i] for i in idxs], size=size, demand=demand,
                    weight=weight, usage=usage))
            elif kind == "stop":
                net.stop_flow(live[len(idxs) % len(live)])
            elif kind == "demand":
                net.set_demand(live[len(idxs) % len(live)], value)
            else:
                res[idxs[0]].set_capacity(value)
        sim.run()
    assert all(not f.active for f in flows)


def test_stop_noops_counter_ticks_on_completed_flow():
    """Stopping an already-finished flow is an explicit no-op: the
    ``fluid.stop_noops`` counter ticks, ``on_flow_end`` does not fire a
    second time, and repeated stops keep counting."""
    with telemetry_context(trace=False) as tele:
        sim, net = make_net()
        link = Resource("link", 10.0)
        flow = net.transfer([link], size=10.0)
        sim.run()
        assert flow.done.triggered
        got = net.stop_flow(flow)
        assert got == flow.transferred
        net.stop_flow(flow)
        reg = tele.registry
        assert reg.counter("fluid.stop_noops").value == 2.0
        assert reg.counter("fluid.flows_completed").value == 1.0
        assert reg.counter("fluid.flows_aborted").value == 0.0


# ---------------------------------------------------------------------------
# Engine: generation-based heap-entry reuse
# ---------------------------------------------------------------------------

def test_reschedule_supersedes_previous_entry():
    sim = Simulator()
    fired = []
    handle = sim.schedule_at(5.0, fired.append, "late")
    sim.reschedule(handle, 3.0, fired.append, "early")
    sim.run()
    assert fired == ["early"]
    assert sim.now == 3.0
    assert handle.fired


def test_reschedule_after_fire_rearms():
    sim = Simulator()
    fired = []
    handle = sim.schedule_at(1.0, fired.append, 1)
    sim.run()
    sim.reschedule(handle, 2.0, fired.append, 2)
    sim.run()
    assert fired == [1, 2]


def test_reschedule_cancelled_handle_revives_it():
    sim = Simulator()
    fired = []
    handle = sim.schedule_at(1.0, fired.append, 1)
    handle.cancel()
    sim.reschedule(handle, 4.0, fired.append, 2)
    sim.run()
    assert fired == [2]
    assert sim.now == 4.0


def test_reschedule_into_past_raises():
    sim = Simulator()
    handle = sim.schedule_at(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.reschedule(handle, 0.5, lambda: None)


def test_peek_skips_superseded_entries():
    sim = Simulator()
    handle = sim.schedule_at(1.0, lambda *a: None, daemon=False)
    sim.reschedule(handle, 7.0, lambda *a: None)
    assert sim.peek() == 7.0


# ---------------------------------------------------------------------------
# P2P: cancelling unmatched requests
# ---------------------------------------------------------------------------

def test_p2p_cancel_unmatched_request():
    from repro.faults.reliability import TransportError
    from repro.hardware import Cluster, HENRI
    from repro.mpi import CommWorld, P2PContext
    world = CommWorld(Cluster(HENRI, 2), comm_placement="near")
    p2p = P2PContext(world)
    req = p2p.isend(0, 1, world.rank(0).buffer(1024), tag=7)
    assert p2p.cancel(req)
    assert req.done.triggered
    with pytest.raises(TransportError):
        _ = req.done.value
    # A matching irecv posted later must NOT pair with the cancelled
    # send: it waits for a fresh partner instead.
    recv = p2p.irecv(1, 0, world.rank(1).buffer(1024), tag=7)
    send2 = p2p.isend(0, 1, world.rank(0).buffer(1024), tag=7)
    world.sim.run()
    assert recv.done.triggered and recv.done.ok
    assert send2.done.triggered and send2.done.ok
    # Cancelling a completed request is refused.
    assert not p2p.cancel(send2)
