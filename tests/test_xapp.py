"""Multi-application co-scheduling: placement validation, interference,
per-app attribution, and link-targeted fault injection on real fabrics."""

import contextlib

import pytest

from repro.core.apps import AppSpec, run_apps
from repro.core.xapp import fig_xapp, xapp_placements
from repro.faults import FaultPlan, fault_context, parse_fault
from repro.faults.plan import DegradedLink
from repro.hardware.fabric import Dragonfly, FatTree, make_topology
from repro.hardware.topology import Cluster
from repro.mpi.comm import CommWorld
from repro.mpi.pingpong import PingPong
from repro.obs import telemetry_context


def _dragonfly(n_nodes=8, group_size=4):
    return Cluster("henri", n_nodes=n_nodes,
                   topology=make_topology("dragonfly",
                                          group_size=group_size))


# -- AppSpec validation ---------------------------------------------------

def test_appspec_validation():
    with pytest.raises(ValueError, match="non-empty name"):
        AppSpec(name="", nodes=(0, 1))
    with pytest.raises(ValueError, match="unknown app pattern"):
        AppSpec(name="a", pattern="storm", nodes=(0, 1))
    with pytest.raises(ValueError, match="at least 2 nodes"):
        AppSpec(name="a", nodes=(0,))
    with pytest.raises(ValueError, match="even rank count"):
        AppSpec(name="a", pattern="pingpong", nodes=(0, 1, 2))
    AppSpec(name="a", pattern="ring", nodes=(0, 1, 2))   # odd ring is fine
    with pytest.raises(ValueError, match="unknown app field"):
        AppSpec.from_dict({"name": "a", "nodes": [0, 1], "sizes": 4})


def test_run_apps_rejects_overlap_and_duplicates():
    cluster = _dragonfly()
    a = AppSpec(name="a", nodes=(0, 4), reps=1)
    with pytest.raises(ValueError, match="both place a rank on node 4"):
        run_apps(cluster, [a, AppSpec(name="b", nodes=(4, 5), reps=1)])
    with pytest.raises(ValueError, match="duplicate application names"):
        run_apps(cluster, [a, AppSpec(name="a", nodes=(1, 5), reps=1)])
    with pytest.raises(ValueError, match="outside this 8-node"):
        run_apps(cluster, [AppSpec(name="c", nodes=(0, 9), reps=1)])


# -- co-scheduled interference --------------------------------------------

def test_coscheduled_aggressors_degrade_victim():
    """Aggressor pairs crossing the victim's global link cut its
    bandwidth; the same pairs on a full mesh do not."""
    def victim_bw(topology, aggressors):
        cluster = Cluster("henri", n_nodes=8, topology=topology)
        specs = [AppSpec(name="victim", nodes=(0, 4), size=1 << 20,
                         reps=4)]
        specs += [AppSpec(name=f"agg{j}", nodes=pair, size=1 << 22,
                          reps=4) for j, pair in enumerate(aggressors)]
        return run_apps(cluster, specs)["victim"].bandwidth

    alone = victim_bw(make_topology("dragonfly", group_size=4), [])
    contended = victim_bw(make_topology("dragonfly", group_size=4),
                          [(1, 5), (2, 6)])
    assert contended < 0.75 * alone
    # Full mesh: private wires, no shared fabric edge -> no interference.
    mesh_alone = victim_bw(make_topology("fullmesh"), [])
    mesh_cont = victim_bw(make_topology("fullmesh"), [(2, 3), (5, 6)])
    assert mesh_cont == pytest.approx(mesh_alone, rel=1e-6)


def test_zero_fault_multi_node_runs_are_identical():
    """Co-scheduling on a real fabric stays deterministic: two fresh
    clusters produce bit-equal per-message latencies."""
    def once():
        cluster = _dragonfly()
        specs = [AppSpec(name="v", nodes=(0, 4), size=1 << 19, reps=3),
                 AppSpec(name="n", pattern="ring", nodes=(1, 5, 2),
                         size=1 << 18, reps=3)]
        results = run_apps(cluster, specs)
        return {k: list(r.latencies) for k, r in results.items()}

    assert once() == once()


def test_per_app_attribution_in_telemetry():
    with telemetry_context() as tele:
        cluster = _dragonfly()
        run_apps(cluster, [
            AppSpec(name="victim", nodes=(0, 4), size=1 << 19, reps=2),
            AppSpec(name="noise", nodes=(1, 5), size=1 << 19, reps=2)])
        snap = tele.registry.snapshot()
    assert {s.run for s in tele.transfers} == {"victim", "noise"}
    assert any("app=victim" in k for k in snap)
    assert any("app=noise" in k for k in snap)


# -- placement synthesis --------------------------------------------------

def test_xapp_placements_collide_by_construction():
    topo = Dragonfly(group_size=4).build(8, 12.5e9)
    victim, pairs = xapp_placements(topo, 8, 2)
    glob = topo.find_link("df.g0->g1")
    assert glob in topo.route(*victim)
    for pair in pairs:
        assert glob in topo.route(*pair)
    with pytest.raises(ValueError, match="at most group_size-1"):
        xapp_placements(topo, 8, 4)

    ft = FatTree(hosts_per_leaf=4, spines=2).build(8, 12.5e9)
    fv, fpairs = xapp_placements(ft, 8, 1)
    spine = ft.spine_of(*fv)
    assert all(ft.spine_of(*p) == spine for p in fpairs)


@pytest.mark.parametrize("topology,topology_params", [
    ("dragonfly", dict(group_size=4)), ("fullmesh", None)],
    ids=["dragonfly", "fullmesh"])
def test_fig_xapp_fast_interference_curve(topology, topology_params):
    """Victim slowdown depends on which links the victim shares (Kang et
    al., "Modeling and Analysis of Application Interference on
    Dragonfly+"): aggressors crossing the victim's dragonfly global link
    cut its bandwidth, while a full mesh gives every pair a private wire,
    so the victim's bandwidth does not move by a bit."""
    result = fig_xapp(topology=topology, n_nodes=8, streams=[0, 2],
                      topology_params=topology_params,
                      size=1 << 19, aggressor_size=1 << 21, reps=2)
    bw = result["victim_bw"]
    retained = result.observations["victim_bw_retained"]
    if topology == "dragonfly":
        assert bw.at(2) < bw.at(0)
        assert 0 < retained < 1
    else:
        assert bw.at(2) == bw.at(0)
        assert retained == 1.0
    assert "app_bw[victim]" in result.series
    assert "app_bw[agg2]" in result.series


# -- link-targeted fault injection ----------------------------------------

def test_parse_link_fault_by_label():
    fault = parse_fault("link:link=df.g0->g1,bw_factor=0.5,duration=1")
    assert isinstance(fault, DegradedLink)
    assert fault.link == "df.g0->g1"
    # Pair addressing and serialization still work as before.
    plan = FaultPlan(seed=3).add(fault)
    assert FaultPlan.from_dict(plan.to_dict()).faults == plan.faults
    pair_plan = FaultPlan(seed=0).degrade_link(0, 1, bw_factor=0.5)
    assert "link" not in pair_plan.to_dict()["faults"][0]
    with pytest.raises(ValueError):
        DegradedLink(bw_factor=0.5)     # neither pair nor label


def _pingpong_on_dragonfly(nodes, plan=None, size=1 << 20, reps=4):
    ctx = fault_context(plan) if plan is not None \
        else contextlib.nullcontext()
    with ctx:
        cluster = _dragonfly()
        world = CommWorld(cluster, comm_placement="near", nodes=nodes)
        return PingPong(world).run(size, reps=reps)


def test_link_fault_slows_only_crossing_routes():
    """Degrading one dragonfly global link hurts routes crossing it and
    leaves intra-group traffic byte-identical."""
    plan = FaultPlan(seed=0).degrade_link(
        link="df.g0->g1", bw_factor=0.1, start=0.0, duration=10.0)
    crossing_base = _pingpong_on_dragonfly((0, 4))
    crossing_hit = _pingpong_on_dragonfly((0, 4), plan)
    assert crossing_hit.median_latency > 1.5 * crossing_base.median_latency

    local_base = _pingpong_on_dragonfly((1, 2))
    local_hit = _pingpong_on_dragonfly((1, 2), plan)
    assert local_hit.latencies == local_base.latencies


def test_link_fault_latency_factor_applies_per_route():
    plan = FaultPlan(seed=0).degrade_link(
        link="df.g0->g1", latency_factor=50.0, start=0.0, duration=10.0)
    small = 1 << 10                       # latency-bound message size
    base = _pingpong_on_dragonfly((0, 4), size=small)
    hit = _pingpong_on_dragonfly((0, 4), plan, size=small)
    assert hit.median_latency > base.median_latency
    # The window closes: after `duration` the factor is lifted.
    fault = plan.faults[0]
    assert fault.duration == 10.0


def test_unknown_link_label_fault_raises():
    plan = FaultPlan(seed=0).degrade_link(
        link="df.g7->g9", bw_factor=0.5, start=0.0, duration=1.0)
    with pytest.raises(ValueError, match="unknown fabric link"):
        _pingpong_on_dragonfly((0, 4), plan)
