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

from repro.core.campaign import CampaignJournal, SweepGuard
from repro.core.executor import PointSpec, stat_row
from repro.core.experiments import (_OBS, _guarded_observations,
                                    _observe_shipped)
from repro.core.registry import experiment
from repro.core.results import ExperimentResult
from repro.core.sidebyside import start_kernels
from repro.hardware.gpu import GPU, GPUSpec, V100, attach_gpu
from repro.hardware.presets import MachineSpec
from repro.hardware.topology import Cluster
from repro.kernels.stream import triad_kernel
from repro.mpi.comm import CommWorld
from repro.mpi.pingpong import BANDWIDTH_SIZE, LATENCY_SIZE, PingPong

__all__ = ["gpu_vs_network", "gpu_vs_stream"]


def _memcpy_loop(gpu: GPU, nbytes: int, out: List[float],
                 stop: dict) -> Generator:
    """Continuously shuttle *nbytes* H2D, recording per-copy bandwidth."""
    while not stop.get("stop"):
        bw = yield from gpu.memcpy_process(nbytes, host_numa=0,
                                           direction="h2d")
        out.append(bw)


def _gpu_network_point(params: dict) -> dict:
    """One ping-pong beside STREAM cores on both nodes, optionally with
    a continuous H2D memcpy stream on each node."""
    key, with_gpu = params["series"], params["with_gpu"]
    cluster = Cluster(params["spec"], n_nodes=2)
    world = CommWorld(cluster, comm_placement="far")
    runs = start_kernels(cluster.machines, world.comm_cores,
                         params["n_stream_cores"], triad_kernel, 0, None)
    copies: List[float] = []
    stop = {"stop": False}
    if with_gpu:
        for machine in cluster.machines:
            gpu = attach_gpu(machine, params["gpu_spec"])
            cluster.sim.process(
                _memcpy_loop(gpu, params["chunk"], copies, stop))
    lats: List[float] = []
    proc = cluster.sim.process(PingPong(world).process(
        params["size"], params["reps"], out=lats))
    cluster.sim.run(until=proc)
    if not proc.ok:   # re-raise the ping-pong's transport failure
        _ = proc.value
    stop["stop"] = True
    for r in runs:
        r.request_stop()
    rows = {key: [stat_row(1.0 if with_gpu else 0.0, lats)]}
    if with_gpu and copies:
        rows[f"{_OBS}memcpy_bw_during_{key}"] = [stat_row(0, copies)]
    return rows


@experiment(title="Host<->GPU transfers vs network performance",
            tags=("extension", "gpu"),
            fast=dict(reps=6, chunk=8 << 20))
def gpu_vs_network(spec: MachineSpec | str = "henri",
                   gpu_spec: GPUSpec = V100,
                   chunk: int = 16 << 20,
                   reps: int = 10,
                   n_stream_cores: int = 20,
                   journal: Optional[CampaignJournal] = None
                   ) -> ExperimentResult:
    """Marginal impact of GPU memcpy traffic on network performance.

    Both measurements run beside *n_stream_cores* STREAM cores per node
    (an application already using its memory bandwidth, the realistic
    case); the "with GPU" one adds a continuous H2D memcpy stream on
    each node.  The delta isolates what the GPU's data movements cost
    the network — the paper's §8 question.
    """
    result = ExperimentResult(
        name="gpu_vs_network",
        title="Host<->GPU transfers vs network performance")
    specs = []
    for message_size, key in ((LATENCY_SIZE, "latency"),
                              (BANDWIDTH_SIZE, "bandwidth")):
        result.new_series(key, xlabel="gpu traffic", ylabel="seconds")
        specs += [PointSpec(
            experiment="gpu_vs_network", key=f"{key}/gpu={int(with_gpu)}",
            runner="repro.core.gpu_experiments:_gpu_network_point",
            params=dict(spec=spec, gpu_spec=gpu_spec, chunk=chunk,
                        reps=reps, n_stream_cores=n_stream_cores,
                        size=message_size, series=key,
                        with_gpu=with_gpu))
            for with_gpu in (False, True)]
    SweepGuard(result, journal).run_specs(specs)
    _observe_shipped(result)

    def observations():
        lat, bw = result["latency"], result["bandwidth"]
        result.observe("latency_ratio", lat.at(1) / lat.at(0))
        result.observe("bandwidth_ratio", bw.at(0) / bw.at(1))
    _guarded_observations(result, observations)
    return result


def _gpu_stream_point(params: dict) -> dict:
    """H2D copy bandwidths beside ``n`` STREAM cores on one node."""
    n = params["n"]
    cluster = Cluster(params["spec"], n_nodes=1)
    machine = cluster.machine(0)
    gpu = attach_gpu(machine, params["gpu_spec"])
    runs = start_kernels([machine], {}, n, triad_kernel, 0, None)
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
