"""Cross-application interference on a shared fabric (``fig_xapp``).

The paper measures interference between communications and computations
*inside* one node; at rack scale a second channel appears — independent
applications contending for shared fabric links.  This experiment
quantifies it the paper's way: a victim ping-pong is probed while an
aggressor application drives traffic across the same dragonfly global
links, sweeping the number of aggressor streams.

Placement is *provably* colliding, not probabilistic: the aggressor pairs
are chosen so their minimal routes cross the same fabric edge as the
victim's (same dragonfly group pair → same global link).  On a full mesh
the pairs share no links — the sweep then shows the flat baseline that
motivates real topologies.

Every application carries its own telemetry identity (``app=`` metric
labels, per-app journal series ``app_bw[<name>]``), so campaign journals
and the HTML report attribute fabric traffic per application.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.apps import AppSpec, run_apps
from repro.core.campaign import CampaignJournal, SweepGuard
from repro.core.executor import PointSpec, stat_row, value_row
from repro.core.registry import experiment
from repro.core.results import ExperimentResult
from repro.hardware.fabric import Dragonfly, make_topology
from repro.hardware.presets import MachineSpec, get_preset
from repro.hardware.topology import Cluster

__all__ = ["fig_xapp", "xapp_placements"]


def _spec(spec: MachineSpec | str) -> MachineSpec:
    return get_preset(spec) if isinstance(spec, str) else spec


def xapp_placements(topo, n_nodes: int,
                    streams: int) -> Tuple[Tuple[int, int],
                                           List[Tuple[int, int]]]:
    """Victim pair + *streams* aggressor pairs sharing the victim's links.

    *topo* is a built :class:`~repro.hardware.fabric.Topology`.  Raises
    a descriptive error when the topology is too small for the request.
    """
    if isinstance(topo, Dragonfly):
        gs = topo.group_size
        if topo.n_groups < 2:
            raise ValueError(
                "xapp needs >= 2 dragonfly groups for a cross-group "
                "victim route")
        if streams >= gs:
            raise ValueError(
                f"at most group_size-1 = {gs - 1} aggressor streams fit "
                f"alongside the victim in one dragonfly group pair")
        # Victim group0.r0 <-> group1.r0; aggressor j group0.rj <->
        # group1.rj — every pair crosses the df.g0->g1 / df.g1->g0
        # global links of the victim's route.
        victim = (0, gs)
        pairs = [(j, gs + j) for j in range(1, streams + 1)]
        return victim, pairs
    # Full mesh: sequential pairs off the victim's nodes.  They share no
    # fabric links (flat-baseline control).
    victim = (0, 1)
    needed = 2 + 2 * streams
    if needed > n_nodes:
        raise ValueError(
            f"{streams} aggressor pairs need {needed} nodes, cluster "
            f"has {n_nodes}")
    pairs = [(2 * j, 2 * j + 1) for j in range(1, streams + 1)]
    return victim, pairs


def _xapp_point(params: dict) -> dict:
    """One (aggressor streams = k) co-scheduling point."""
    s = _spec(params["spec"])
    topo = make_topology(params["topology"],
                         **(params.get("topology_params") or {}))
    cluster = Cluster(s, n_nodes=params["n_nodes"], topology=topo)
    k = params["streams"]
    apps_cfg = params.get("apps")
    if apps_cfg:
        # Explicit scenario placements: first app is the victim; k == 0
        # runs it alone (the baseline point), k > 0 co-schedules all.
        specs = [AppSpec.from_dict(dict(a)) for a in apps_cfg]
        if k == 0:
            specs = specs[:1]
    else:
        victim, pairs = xapp_placements(cluster.topology,
                                        params["n_nodes"], k)
        specs = [AppSpec(name="victim", pattern="pingpong", nodes=victim,
                         size=params["size"], reps=params["reps"])]
        for j, pair in enumerate(pairs, start=1):
            specs.append(AppSpec(
                name=f"agg{j}", pattern="pingpong", nodes=pair,
                size=params["aggressor_size"], reps=params["reps"]))
    results = run_apps(cluster, specs)
    victim_res = results[specs[0].name]
    rows = {
        "victim_bw": [stat_row(k, [victim_res.size / t
                                   for t in victim_res.latencies])],
        "victim_latency": [stat_row(k, victim_res.latencies)],
        "aggressor_bw": [value_row(k, sum(
            r.aggregate_bandwidth for name, r in results.items()
            if name != specs[0].name))],
    }
    # Per-app journal series: each application's aggregate goodput.
    for name in sorted(results):
        rows[f"app_bw[{name}]"] = [value_row(
            k, results[name].aggregate_bandwidth)]
    return rows


@experiment(name="fig_xapp",
            title="Cross-application interference on a shared fabric",
            tags=("extension", "cluster"),
            params=("topology", "n_nodes", "streams", "size",
                    "aggressor_size", "reps", "topology_params", "apps"),
            fast=dict(n_nodes=16, streams=[0, 1, 3],
                      topology_params=dict(group_size=4),
                      size=1 << 20, aggressor_size=4 << 20, reps=3))
def fig_xapp(spec: MachineSpec | str = "henri",
             topology: str = "dragonfly",
             n_nodes: int = 64,
             streams: Optional[Sequence[int]] = None,
             size: int = 1 << 20,
             aggressor_size: int = 4 << 20,
             reps: int = 6,
             topology_params: Optional[dict] = None,
             apps: Optional[List[dict]] = None,
             journal: Optional[CampaignJournal] = None) -> ExperimentResult:
    """Victim ping-pong bandwidth vs. co-scheduled aggressor streams.

    Default mode generates provably colliding placements on *topology*
    and sweeps the aggressor stream count.  With explicit *apps* (the
    scenario ``[[apps]]`` tables) the first app is the victim and the
    sweep degenerates to two points: the victim alone (``x = 0``) and
    all applications co-scheduled (``x = 1``).
    """
    if streams is None:
        streams = [0, 1, 2, 4, 6] if apps is None else [0, 1]
    if apps is not None:
        streams = [k for k in streams if k in (0, 1)] or [0, 1]
    result = ExperimentResult(
        name="fig_xapp",
        title="Cross-application interference on a shared fabric")
    result.new_series("victim_bw", xlabel="aggressor streams",
                      ylabel="victim bandwidth (B/s)")
    result.new_series("victim_latency", xlabel="aggressor streams",
                      ylabel="victim latency (s)")
    result.new_series("aggressor_bw", xlabel="aggressor streams",
                      ylabel="aggressor aggregate bandwidth (B/s)")
    guard = SweepGuard(result, journal)
    specs = [PointSpec(
        experiment="fig_xapp", key=f"streams={k}",
        runner="repro.core.xapp:_xapp_point",
        params=dict(spec=spec, topology=topology,
                    topology_params=topology_params, n_nodes=n_nodes,
                    streams=k, size=size, aggressor_size=aggressor_size,
                    reps=reps, apps=apps)) for k in streams]
    guard.run_specs(specs)

    def observations():
        bw = result["victim_bw"]
        base = bw.at(min(streams))
        loaded = bw.at(max(streams))
        if base:
            result.observe("victim_bw_retained", loaded / base)
        result.observe("victim_bw_alone", base)
        result.observe("victim_bw_contended", loaded)
    from repro.core.experiments import _guarded_observations
    _guarded_observations(result, observations)
    return result
