"""The §2.1 benchmark protocol: alone, alone, together.

Two orchestrations cover the paper's experiments:

* :func:`run_throughput_protocol` — the computation is a continuously
  looping kernel (STREAM); its metric is memory bandwidth per core over
  a measurement window, while the communication metric is ping-pong
  latency/bandwidth.  Used for §4 (memory contention).
* :func:`run_duration_protocol` — the computation is a fixed amount of
  work (prime counting, AVX sweeps); its metric is the completion time,
  while ping-pongs loop for as long as the computation runs.  Used for
  §3 (frequency effects).

Each protocol step runs on a *fresh* cluster so steps cannot contaminate
each other, and every step is deterministic.

This module is the one side-by-side harness: every §2.1-style
experiment launches its computing cores with :func:`start_kernels` and
loops its ping-pongs with :meth:`~repro.mpi.pingpong.PingPong.process`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.stats import median
from repro.core.placement import (
    Placement, comm_core_for, compute_core_ids, data_numa_for,
)
from repro.hardware.presets import MachineSpec, get_preset
from repro.hardware.topology import Cluster, Machine
from repro.kernels.roofline import Kernel, KernelRun, run_kernel
from repro.kernels.stream import triad_kernel
from repro.mpi.comm import CommWorld
from repro.mpi.pingpong import LATENCY_SIZE, PingPong, PingPongResult

__all__ = ["SideBySideConfig", "ThroughputOutcome", "DurationOutcome",
           "run_throughput_protocol", "run_duration_protocol",
           "build_world", "start_kernels"]


@dataclass
class SideBySideConfig:
    """Parameters of one side-by-side measurement."""

    spec: MachineSpec | str = "henri"
    n_compute_cores: int = 0
    placement: Placement = field(
        default_factory=lambda: Placement(data="near", comm_thread="far"))
    kernel_factory: Callable[[], Kernel] = triad_kernel
    message_size: int = LATENCY_SIZE
    reps: int = 30
    warmup_reps: int = 3
    # Throughput protocol: measurement window for kernel bandwidth.
    window: float = 0.08
    window_warmup: float = 0.02
    # Duration protocol: sweeps of fixed work per core.
    sweeps: int = 1

    def resolved_spec(self) -> MachineSpec:
        return get_preset(self.spec) if isinstance(self.spec, str) else self.spec


@dataclass
class ThroughputOutcome:
    """Result of the 3-step protocol with a looping kernel."""

    config: SideBySideConfig
    comm_alone: PingPongResult
    comm_together: Optional[PingPongResult]
    compute_alone_bw_per_core: List[float]       # one entry per core
    compute_together_bw_per_core: List[float]

    @property
    def compute_alone_bw(self) -> float:
        return median(self.compute_alone_bw_per_core) \
            if self.compute_alone_bw_per_core else 0.0

    @property
    def compute_together_bw(self) -> float:
        return median(self.compute_together_bw_per_core) \
            if self.compute_together_bw_per_core else 0.0


@dataclass
class DurationOutcome:
    """Result of the 3-step protocol with fixed-work kernels.

    ``compute_*_duration`` is the median per-core completion time (the
    paper's computing cores all do the same work); ``*_makespan`` is the
    slowest core.
    """

    config: SideBySideConfig
    comm_alone: PingPongResult
    comm_together: Optional[PingPongResult]
    compute_alone_duration: float
    compute_together_duration: float
    compute_alone_makespan: float = 0.0
    compute_together_makespan: float = 0.0


# ---------------------------------------------------------------------------
# World construction
# ---------------------------------------------------------------------------

def build_world(config: SideBySideConfig) -> Tuple[Cluster, CommWorld,
                                                   PingPong]:
    """Fresh 2-node cluster + comm world + ping-pong for *config*."""
    spec = config.resolved_spec()
    cluster = Cluster(spec, n_nodes=2)
    comm_cores = {m.node_id: comm_core_for(m, config.placement.comm_thread)
                  for m in cluster.machines}
    world = CommWorld(cluster, comm_cores=comm_cores)
    numa_a = data_numa_for(cluster.machine(0), config.placement.data)
    numa_b = data_numa_for(cluster.machine(1), config.placement.data)
    pingpong = PingPong(world, data_numa_a=numa_a, data_numa_b=numa_b)
    return cluster, world, pingpong


def start_kernels(machines: Sequence[Machine], comm_cores: Mapping[int, int],
                  n: int, kernel_factory: Callable[[], Kernel],
                  data_numa: int, sweeps: Optional[int]) -> List[KernelRun]:
    """Launch a fresh ``kernel_factory()`` on *n* compute cores of each
    of *machines*, streaming from *data_numa*.

    ``comm_cores`` maps a node id to its comm-thread core, which the
    kernels skip; a node without an entry computes on its first *n*
    cores.  ``sweeps=None`` loops until each run's ``request_stop``.
    """
    return [run_kernel(machine, core, kernel_factory(),
                       data_numa=data_numa, sweeps=sweeps)
            for machine in machines
            for core in compute_core_ids(
                machine, n, comm_cores.get(machine.node_id, -1))]


def _protocol_kernels(world: CommWorld, config: SideBySideConfig,
                      sweeps: Optional[int]) -> List[KernelRun]:
    """The configured kernel on n compute cores of both nodes."""
    machines = world.cluster.machines
    return start_kernels(
        machines, world.comm_cores, config.n_compute_cores,
        config.kernel_factory,
        data_numa_for(machines[0], config.placement.data), sweeps)


def _window_bandwidths(runs: List[KernelRun], snapshots: dict,
                       window: float) -> List[float]:
    """Per-core achieved DRAM bandwidth over the measurement window."""
    out: List[float] = []
    for run in runs:
        delta = run.machine.counters.delta(snapshots[id(run)],
                                           cores=[run.stats.core_id])
        out.append(delta.bytes_moved / window if window > 0 else 0.0)
    return out


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------

def run_throughput_protocol(config: SideBySideConfig) -> ThroughputOutcome:
    """STREAM-style protocol: looping kernels, windowed bandwidth."""
    # Step 2 of §2.1 — communication without computation.
    _, _, pingpong = build_world(config)
    comm_alone = pingpong.run(config.message_size, reps=config.reps,
                              warmup=config.warmup_reps)

    compute_alone: List[float] = []
    compute_together: List[float] = []
    comm_together: Optional[PingPongResult] = None

    if config.n_compute_cores > 0:
        # Step 1 — computation without communication.
        cluster, world, _ = build_world(config)
        runs = _protocol_kernels(world, config, sweeps=None)
        cluster.sim.run(until=config.window_warmup)
        snaps = {id(run): run.machine.counters.snapshot() for run in runs}
        cluster.sim.run(until=config.window_warmup + config.window)
        compute_alone = _window_bandwidths(runs, snaps, config.window)
        for run in runs:
            run.request_stop()
        cluster.sim.run()

        # Step 3 — computation with side-by-side communication.  The
        # ping-pong loops for at least `reps` iterations AND at least the
        # measurement window, so the kernels' windowed bandwidth is
        # meaningful even for microsecond-scale latency messages.
        cluster, world, pingpong = build_world(config)
        runs = _protocol_kernels(world, config, sweeps=None)
        cluster.sim.run(until=config.window_warmup)
        snaps = {id(run): run.machine.counters.snapshot() for run in runs}
        t0 = cluster.sim.now
        t_end = t0 + config.window
        latencies: List[float] = []
        enough = config.warmup_reps + config.reps
        proc = cluster.sim.process(pingpong.process(
            config.message_size, config.reps, out=latencies,
            warmup=config.warmup_reps,
            more=lambda it: it < enough or cluster.sim.now < t_end))
        cluster.sim.run(until=proc)
        window = cluster.sim.now - t0
        compute_together = _window_bandwidths(runs, snaps, window)
        for run in runs:
            run.request_stop()
        cluster.sim.run()
        comm_together = PingPongResult(size=config.message_size,
                                       latencies=latencies)

    return ThroughputOutcome(
        config=config,
        comm_alone=comm_alone,
        comm_together=comm_together,
        compute_alone_bw_per_core=compute_alone,
        compute_together_bw_per_core=compute_together,
    )


def run_duration_protocol(config: SideBySideConfig) -> DurationOutcome:
    """Fixed-work protocol: kernel completion time vs ping-pong latency."""
    if config.n_compute_cores <= 0:
        raise ValueError("duration protocol needs computing cores")

    # Step 2 — communication without computation.
    _, _, pingpong = build_world(config)
    comm_alone = pingpong.run(config.message_size, reps=config.reps,
                              warmup=config.warmup_reps)

    # Step 1 — computation without communication.
    cluster, world, _ = build_world(config)
    runs = _protocol_kernels(world, config, sweeps=config.sweeps)
    cluster.sim.run()
    compute_alone = median([r.stats.duration for r in runs])
    alone_makespan = max(r.stats.duration for r in runs)

    # Step 3 — both together: ping-pong loops while the kernels run.
    # Latencies are only recorded while *every* computing core is still
    # working, so stragglers do not dilute the contended measurements.
    cluster, world, pingpong = build_world(config)
    runs = _protocol_kernels(world, config, sweeps=config.sweeps)
    latencies: List[float] = []

    def all_running() -> bool:
        return all(not run.process.triggered for run in runs)

    world.sim.process(pingpong.process(
        config.message_size, config.reps, out=latencies,
        warmup=config.warmup_reps,
        more=lambda _it: any(not run.process.triggered for run in runs),
        keep=all_running))
    cluster.sim.run()
    compute_together = median([r.stats.duration for r in runs])
    together_makespan = max(r.stats.duration for r in runs)
    comm_together = PingPongResult(size=config.message_size,
                                   latencies=latencies) \
        if latencies else None

    return DurationOutcome(
        config=config,
        comm_alone=comm_alone,
        comm_together=comm_together,
        compute_alone_duration=compute_alone,
        compute_together_duration=compute_together,
        compute_alone_makespan=alone_makespan,
        compute_together_makespan=together_makespan,
    )
