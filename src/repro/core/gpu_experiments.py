"""GPU-transfer interference experiments (§8 future work).

Asks the paper's final question — what do host<->GPU data movements do
to communications and computations? — with the same §2.1 side-by-side
methodology:

* :func:`gpu_vs_network` — ping-pong performance while a cudaMemcpy
  stream shuttles data between host memory and the device.  H2D reads
  cross the same memory controller the NIC's DMA uses; the network
  bandwidth drops the same way it does under STREAM (Figure 4b's
  mechanism, new traffic source).
* :func:`gpu_vs_stream` — achieved memcpy bandwidth while computing
  cores run STREAM: the GPU link starves exactly like the NIC does.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

import numpy as np

from repro.core.campaign import CampaignJournal, SweepGuard
from repro.core.executor import PointSpec, stat_row
from repro.core.experiments import _guarded_observations
from repro.core.placement import compute_core_ids
from repro.core.registry import experiment
from repro.core.results import ExperimentResult
from repro.hardware.gpu import GPU, GPUSpec, V100, attach_gpu
from repro.hardware.presets import MachineSpec, get_preset
from repro.hardware.topology import Cluster
from repro.kernels.roofline import run_kernel
from repro.kernels.stream import triad_kernel
from repro.mpi.comm import CommWorld
from repro.mpi.pingpong import BANDWIDTH_SIZE, LATENCY_SIZE

__all__ = ["gpu_vs_network", "gpu_vs_stream"]


def _memcpy_loop(gpu: GPU, nbytes: int, out: List[float],
                 stop: dict) -> Generator:
    """Continuously shuttle *nbytes* H2D, recording per-copy bandwidth."""
    while not stop.get("stop"):
        bw = yield from gpu.memcpy_process(nbytes, host_numa=0,
                                           direction="h2d")
        out.append(bw)


@experiment(title="Host<->GPU transfers vs network performance",
            tags=("extension", "gpu"), journal=False,
            fast=dict(reps=6, chunk=8 << 20))
def gpu_vs_network(spec: MachineSpec | str = "henri",
                   gpu_spec: GPUSpec = V100,
                   chunk: int = 16 << 20,
                   reps: int = 10,
                   n_stream_cores: int = 20) -> ExperimentResult:
    """Marginal impact of GPU memcpy traffic on network performance.

    Both measurements run beside *n_stream_cores* STREAM cores per node
    (an application already using its memory bandwidth, the realistic
    case); the "with GPU" one adds a continuous H2D memcpy stream on
    each node.  The delta isolates what the GPU's data movements cost
    the network — the paper's §8 question.
    """
    s = get_preset(spec) if isinstance(spec, str) else spec
    result = ExperimentResult(
        name="gpu_vs_network",
        title="Host<->GPU transfers vs network performance")

    for message_size, key in ((LATENCY_SIZE, "latency"),
                              (BANDWIDTH_SIZE, "bandwidth")):
        series = result.new_series(key, xlabel="gpu traffic",
                                   ylabel="seconds")
        for with_gpu in (False, True):
            cluster = Cluster(s, n_nodes=2)
            world = CommWorld(cluster, comm_placement="far")
            comm_cores = {r.node_id: r.comm_core for r in world.ranks}
            runs = []
            for machine in cluster.machines:
                for core in compute_core_ids(
                        machine, n_stream_cores,
                        comm_cores[machine.node_id]):
                    runs.append(run_kernel(machine, core, triad_kernel(),
                                           data_numa=0, sweeps=None))
            copies: List[float] = []
            stop = {"stop": False}
            if with_gpu:
                for machine in cluster.machines:
                    gpu = attach_gpu(machine, gpu_spec)
                    cluster.sim.process(
                        _memcpy_loop(gpu, chunk, copies, stop))
            from repro.mpi.pingpong import PingPong
            pingpong = PingPong(world)
            lats: List[float] = []
            proc = cluster.sim.process(pingpong.process(
                message_size, reps, out=lats))
            cluster.sim.run(until=proc)
            stop["stop"] = True
            for r in runs:
                r.request_stop()
            series.add(1.0 if with_gpu else 0.0, lats)
            if with_gpu and copies:
                result.observe(f"memcpy_bw_during_{key}",
                               float(np.median(copies)))
    lat = result["latency"]
    bw = result["bandwidth"]
    result.observe("latency_ratio", lat.at(1) / lat.at(0))
    result.observe("bandwidth_ratio", bw.at(0) / bw.at(1))
    return result


def _gpu_stream_point(params: dict) -> dict:
    """H2D copy bandwidths beside ``n`` STREAM cores on one node."""
    n = params["n"]
    cluster = Cluster(params["spec"], n_nodes=1)
    machine = cluster.machine(0)
    gpu = attach_gpu(machine, params["gpu_spec"])
    runs = [run_kernel(machine, core, triad_kernel(), data_numa=0,
                       sweeps=None)
            for core in compute_core_ids(machine, n, comm_core=-1)]
    bws: List[float] = []

    def copies() -> Generator:
        for _ in range(params["copies_per_point"]):
            bw = yield from gpu.memcpy_process(params["chunk"], host_numa=0)
            bws.append(bw)

    proc = cluster.sim.process(copies())
    cluster.sim.run(until=proc)
    for r in runs:
        r.request_stop()
    return {"memcpy_bw": [stat_row(n, bws)]}


@experiment(title="Host->GPU copy bandwidth under memory contention",
            tags=("extension", "gpu"),
            fast=dict(core_counts=[0, 4, 12], copies_per_point=4))
def gpu_vs_stream(spec: MachineSpec | str = "henri",
                  gpu_spec: GPUSpec = V100,
                  core_counts: Optional[Sequence[int]] = None,
                  chunk: int = 16 << 20,
                  copies_per_point: int = 8,
                  journal: Optional[CampaignJournal] = None
                  ) -> ExperimentResult:
    """Achieved H2D bandwidth vs the number of STREAM cores."""
    if core_counts is None:
        core_counts = [0, 2, 4, 8, 12, 17]
    result = ExperimentResult(
        name="gpu_vs_stream",
        title="Host->GPU copy bandwidth under memory contention")
    series = result.new_series("memcpy_bw", xlabel="computing cores",
                               ylabel="bytes/s")
    SweepGuard(result, journal).run_specs([
        PointSpec(experiment="gpu_vs_stream", key=f"n={n}",
                  runner="repro.core.gpu_experiments:_gpu_stream_point",
                  params=dict(spec=spec, gpu_spec=gpu_spec, n=n,
                              chunk=chunk,
                              copies_per_point=copies_per_point))
        for n in core_counts])

    def observations():
        base = series.median[0]
        result.observe("memcpy_bw_alone", base)
        result.observe("memcpy_bw_min_ratio", min(series.median) / base)
    _guarded_observations(result, observations)
    return result
