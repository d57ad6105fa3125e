"""Communication/computation overlap benchmark (extension).

The paper's related work cites Denis & Trahay's MPI overlap benchmark
[7], which measures how well a library makes communication progress
while the host computes.  This module reproduces that methodology on the
simulator:

* ``t_comm``    — a message alone;
* ``t_comp``    — a computation phase alone;
* ``t_overlap`` — post the message, compute, then wait for completion.

A perfect-overlap system gives ``t_overlap ≈ max(t_comm, t_comp)``; no
overlap gives the sum.  The **overlap ratio**

``(t_comm + t_comp - t_overlap) / min(t_comm, t_comp)``

is 1 for full overlap and 0 for none.  Because this simulator models a
*dedicated communication thread* (the paper's methodology), overlap is
structurally good — except where the two activities interfere through
the memory bus, which is exactly the §4 coupling: overlapping a large
message with memory-bound compute yields a ratio well below 1 even
though progress is perfect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.campaign import CampaignJournal, SweepGuard
from repro.core.executor import PointSpec, value_row
from repro.core.experiments import _guarded_observations
from repro.core.placement import Placement, data_numa_for
from repro.core.registry import experiment
from repro.core.results import ExperimentResult
from repro.core.sidebyside import SideBySideConfig, build_world, start_kernels
from repro.kernels.roofline import Kernel, KernelRun
from repro.kernels.stream import triad_kernel, tunable_triad

__all__ = ["OverlapResult", "measure_overlap", "overlap_experiment"]


@dataclass
class OverlapResult:
    """One overlap measurement."""

    message_size: int
    n_compute_cores: int
    t_comm: float
    t_comp: float
    t_overlap: float

    @property
    def overlap_ratio(self) -> float:
        """1 = full overlap, 0 = fully serialised."""
        saved = self.t_comm + self.t_comp - self.t_overlap
        denom = min(self.t_comm, self.t_comp)
        return saved / denom if denom > 0 else 0.0

    @property
    def slowdown(self) -> float:
        """t_overlap relative to the ideal max(comm, comp)."""
        ideal = max(self.t_comm, self.t_comp)
        return self.t_overlap / ideal if ideal > 0 else 1.0


def _transfer_once(world, pingpong, size) -> float:
    engine = world.engine
    buf_a, buf_b = pingpong._buffers(size)  # noqa: SLF001
    a, b = pingpong.rank_a, pingpong.rank_b
    proc = world.sim.process(engine.half_transfer(
        a.node_id, a.comm_core, buf_a, b.node_id, b.comm_core, buf_b,
        size))
    world.sim.run()
    return proc.value.duration


def _node0_kernels(world, config) -> List[KernelRun]:
    """The configured kernel on node 0's compute cores."""
    machines = world.cluster.machines[:1]
    return start_kernels(
        machines, world.comm_cores, config.n_compute_cores,
        config.kernel_factory,
        data_numa_for(machines[0], config.placement.data), config.sweeps)


def measure_overlap(message_size: int, n_compute_cores: int = 8,
                    kernel_factory: Callable[[], Kernel] = None,
                    sweeps: int = 1,
                    placement: Optional[Placement] = None,
                    spec="henri") -> OverlapResult:
    """Measure comm-alone, comp-alone, and overlapped durations."""
    if kernel_factory is None:
        kernel_factory = lambda: triad_kernel(elems=2_000_000)  # noqa: E731
    if placement is None:
        placement = Placement("near", "far")
    config = SideBySideConfig(
        spec=spec, n_compute_cores=n_compute_cores, placement=placement,
        kernel_factory=kernel_factory, message_size=message_size,
        sweeps=sweeps)

    # Message alone (registration warmed first).
    cluster, world, pingpong = build_world(config)
    _transfer_once(world, pingpong, message_size)
    t_comm = _transfer_once(world, pingpong, message_size)

    # Computation alone.
    cluster, world, _ = build_world(config)
    runs = _node0_kernels(world, config)
    cluster.sim.run()
    t_comp = max(r.stats.duration for r in runs)

    # Overlapped: post the send, compute, wait for both.
    cluster, world, pingpong = build_world(config)
    engine = world.engine
    buf_a, buf_b = pingpong._buffers(message_size)  # noqa: SLF001
    a, b = pingpong.rank_a, pingpong.rank_b
    # Warm the registration cache without perturbing the measurement.
    warm = world.sim.process(engine.half_transfer(
        a.node_id, a.comm_core, buf_a, b.node_id, b.comm_core, buf_b,
        message_size))
    cluster.sim.run()

    t0 = cluster.sim.now
    comm_proc = world.sim.process(engine.half_transfer(
        a.node_id, a.comm_core, buf_a, b.node_id, b.comm_core, buf_b,
        message_size))
    _node0_kernels(world, config)
    cluster.sim.run()
    t_overlap = cluster.sim.now - t0

    return OverlapResult(message_size=message_size,
                         n_compute_cores=n_compute_cores,
                         t_comm=t_comm, t_comp=t_comp,
                         t_overlap=t_overlap)


def _overlap_point(params: dict) -> dict:
    """One message size of the overlap sweep (runs in a worker)."""
    cursor = params["cursor"]
    size = params["size"]
    res = measure_overlap(
        size, n_compute_cores=params["n_compute_cores"],
        kernel_factory=lambda: tunable_triad(cursor, elems=2_000_000),
        spec=params["spec"])
    return {"overlap_ratio": [value_row(size, res.overlap_ratio)],
            "slowdown_vs_ideal": [value_row(size, res.slowdown)]}


@experiment(name="overlap",
            title="Communication/computation overlap efficiency",
            tags=("extension", "overlap"),
            fast=dict(sizes=[65536, 1 << 20, 16 << 20],
                      n_compute_cores=6))
def overlap_experiment(sizes: Optional[Sequence[int]] = None,
                       n_compute_cores: int = 8,
                       cursor: int = 1,
                       spec="henri",
                       journal: Optional[CampaignJournal] = None,
                       ) -> ExperimentResult:
    """Overlap ratio across message sizes (one row of the [7] matrix)."""
    if sizes is None:
        sizes = [4096, 65536, 1 << 20, 8 << 20, 64 << 20]
    result = ExperimentResult(
        name="overlap",
        title="Communication/computation overlap efficiency")
    guard = SweepGuard(result, journal)
    ratio = result.new_series("overlap_ratio", xlabel="message size (B)",
                              ylabel="ratio")
    slow = result.new_series("slowdown_vs_ideal",
                             xlabel="message size (B)", ylabel="x")
    guard.run_specs([
        PointSpec(experiment="overlap", key=f"size={size}",
                  runner="repro.core.overlap:_overlap_point",
                  params=dict(spec=spec, size=size, cursor=cursor,
                              n_compute_cores=n_compute_cores))
        for size in sizes])

    def observations():
        result.observe("min_overlap_ratio", min(ratio.median))
        result.observe("max_slowdown", max(slow.median))
    _guarded_observations(result, observations)
    return result
