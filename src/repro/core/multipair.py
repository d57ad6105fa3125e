"""Multi-pair ping-pong: several communicating threads per node.

The paper's related work discusses Gropp, Olson & Samfass's argument
that the classic ping-pong under-predicts real applications because
several processes per SMP node use the NIC *at the same time* — and
notes it does not apply to the paper's setup, where exactly one thread
communicates per node.  This extension lifts that restriction: ``k``
independent pairs of communication threads (one per node side) run
ping-pongs concurrently over the same NIC, with each pair bound to its
own core.

Expected shape (and what Gropp et al. model):

* small messages — latency grows mildly with k (more doorbells, shared
  uncore) until software serialisation dominates;
* large messages — the wire is shared: aggregate bandwidth stays at the
  link's capacity, per-pair bandwidth decays like 1/k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.stats import median
from repro.core.campaign import CampaignJournal, SweepGuard
from repro.core.executor import PointSpec, value_row
from repro.core.experiments import _guarded_observations
from repro.core.registry import experiment
from repro.core.results import ExperimentResult
from repro.hardware.presets import MachineSpec, get_preset
from repro.hardware.topology import Cluster
from repro.mpi.comm import CommWorld

__all__ = ["MultiPairResult", "run_multipair", "multipair_experiment"]


@dataclass
class MultiPairResult:
    """Outcome of k concurrent ping-pong pairs."""

    n_pairs: int
    size: int
    per_pair_latencies: List[List[float]]

    @property
    def median_latency(self) -> float:
        return median([lat for pair in self.per_pair_latencies
                       for lat in pair])

    @property
    def per_pair_bandwidth(self) -> float:
        return self.size / self.median_latency if self.median_latency > 0 \
            else 0.0

    @property
    def aggregate_bandwidth(self) -> float:
        return self.per_pair_bandwidth * self.n_pairs


def run_multipair(n_pairs: int, size: int, reps: int = 10,
                  spec: MachineSpec | str = "henri") -> MultiPairResult:
    """Run *n_pairs* concurrent ping-pongs between two nodes."""
    s = get_preset(spec) if isinstance(spec, str) else spec
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    max_pairs = s.cores_per_numa * s.numa_per_socket  # one socket's worth
    if n_pairs > max_pairs:
        raise ValueError(f"at most {max_pairs} pairs on {s.name}")
    cluster = Cluster(s, n_nodes=2)
    # Pair i's comm threads on core i of the NIC socket, on both nodes.
    world = CommWorld(cluster, comm_cores={0: 0, 1: 0})
    from repro.hardware.frequency import CoreActivity
    for machine in cluster.machines:
        for core in range(n_pairs):
            machine.set_core_activity(core, CoreActivity.SCALAR,
                                      uncore_active=False)

    engine = world.engine
    latencies: List[List[float]] = [[] for _ in range(n_pairs)]

    def pair_loop(pair: int):
        buf_a = world.rank(0).buffer(size, label=f"mp{pair}_a")
        buf_b = world.rank(1).buffer(size, label=f"mp{pair}_b")
        for it in range(reps + 2):
            rec = yield cluster.sim.process(engine.half_transfer(
                0, pair, buf_a, 1, pair, buf_b, size))
            rec2 = yield cluster.sim.process(engine.half_transfer(
                1, pair, buf_b, 0, pair, buf_a, size))
            if it >= 2:
                latencies[pair].append(rec.duration)
                latencies[pair].append(rec2.duration)

    procs = [cluster.sim.process(pair_loop(i)) for i in range(n_pairs)]
    cluster.sim.run()
    for p in procs:
        if not p.ok:  # pragma: no cover
            _ = p.value
    return MultiPairResult(
        n_pairs=n_pairs, size=size,
        per_pair_latencies=latencies)


def _multipair_point(params: dict) -> dict:
    """One (message size, pair count) point."""
    k, size = params["pairs"], params["size"]
    res = run_multipair(k, size, reps=params["reps"], spec=params["spec"])
    return {f"per_pair_bw_{size}": [value_row(k, res.per_pair_bandwidth)],
            f"aggregate_bw_{size}": [value_row(k, res.aggregate_bandwidth)],
            f"latency_{size}": [value_row(k, res.median_latency)]}


@experiment(name="multipair",
            title="Multiple communicating thread pairs per node",
            tags=("extension", "network"),
            fast=dict(pair_counts=[1, 2, 4], sizes=[4, 16 << 20], reps=4))
def multipair_experiment(pair_counts: Optional[Sequence[int]] = None,
                         sizes: Optional[Sequence[int]] = None,
                         reps: int = 8,
                         spec: MachineSpec | str = "henri",
                         journal: Optional[CampaignJournal] = None
                         ) -> ExperimentResult:
    """Per-pair and aggregate performance vs the number of pairs."""
    if pair_counts is None:
        pair_counts = [1, 2, 4, 8]
    if sizes is None:
        sizes = [4, 1 << 20, 16 << 20]
    result = ExperimentResult(
        name="multipair",
        title="Multiple communicating threads per node (Gropp et al.)")
    for size in sizes:
        result.new_series(f"per_pair_bw_{size}", xlabel="pairs",
                          ylabel="bytes/s")
        result.new_series(f"aggregate_bw_{size}", xlabel="pairs",
                          ylabel="bytes/s")
        result.new_series(f"latency_{size}", xlabel="pairs", ylabel="s")
    SweepGuard(result, journal).run_specs([
        PointSpec(experiment="multipair", key=f"size={size}/pairs={k}",
                  runner="repro.core.multipair:_multipair_point",
                  params=dict(spec=spec, size=size, pairs=k, reps=reps))
        for size in sizes for k in pair_counts])

    def observations():
        agg = result[f"aggregate_bw_{max(sizes)}"]
        result.observe("aggregate_bw_retained",
                       min(agg.median) / max(agg.median))
    _guarded_observations(result, observations)
    return result
