"""Distributed dense conjugate gradient on the task runtime (§6).

The dense CG iteration on two ranks, block-row distributed:

* ``q = A·p`` — each rank owns ``N/2`` rows of A; the local columns can
  be processed immediately, the remote half of ``p`` must arrive first
  (one rendezvous-sized vector message per direction per iteration,
  overlapped with the local GEMV tasks);
* dot products + the scalar exchange (two tiny messages per direction);
* AXPY updates.

CG's GEMV/AXPY/DOT tasks stream their operands once (arithmetic
intensity ≈ 0.1–0.25 flop/B), so the memory system saturates with a
handful of workers — the paper measures 70 % memory-stall cycles and a
90 % loss of sending bandwidth at full worker count.

Matrix tiles are allocated round-robin across NUMA nodes (first-touch by
workers, §5.3), so computation traffic also crosses the inter-socket
links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.hardware.memory import allocate
from repro.hardware.presets import MachineSpec, get_preset
from repro.hardware.topology import Cluster
from repro.kernels.blas import DOUBLE, axpy_cost, dot_cost, gemv_tile_cost
from repro.mpi.comm import CommWorld
from repro.runtime.mpi_layer import RuntimeComm
from repro.runtime.runtime import RuntimeSpec, RuntimeSystem
from repro.runtime.scheduler import PollingSpec
from repro.runtime.task import AccessMode, DataHandle, Task

__all__ = ["CGResult", "run_cg"]


@dataclass
class CGResult:
    """Measured outcome of one CG run."""

    n: int
    iterations: int
    n_workers: int
    duration: float
    sending_bandwidth: float          # §6 metric, bytes/s (avg both nodes)
    stall_fraction: float             # memory-stalled share of busy cycles
    bytes_sent: float
    messages: int

    def summary(self) -> str:
        return (f"CG n={self.n} workers={self.n_workers}: "
                f"{self.duration*1e3:.1f} ms, "
                f"send bw {self.sending_bandwidth/1e9:.2f} GB/s, "
                f"stalls {self.stall_fraction*100:.0f}%")


def _build_rank_data(machine, rank: int, n: int, tile_rows: int):
    """Allocate the rank's matrix row-block tiles (interleaved NUMA) and
    vector buffers."""
    half = n // 2
    n_tiles = max(1, half // tile_rows)
    a_handles: List[DataHandle] = []
    for t in range(n_tiles):
        numa = t % len(machine.numa_nodes)
        buf = allocate(machine, numa, tile_rows * n * DOUBLE,
                       label=f"A[{rank}][{t}]")
        a_handles.append(DataHandle(buffer=buf, home_rank=rank,
                                    label=f"A{t}"))
    p_local = DataHandle(
        buffer=allocate(machine, machine.nic_numa.id, half * DOUBLE,
                        label=f"p_local[{rank}]"),
        home_rank=rank, label="p_local")
    p_remote = DataHandle(
        buffer=allocate(machine, machine.nic_numa.id, half * DOUBLE,
                        label=f"p_remote[{rank}]"),
        home_rank=rank, label="p_remote")
    scalar = DataHandle(
        buffer=allocate(machine, machine.nic_numa.id, DOUBLE,
                        label=f"dot[{rank}]"),
        home_rank=rank, label="dot")
    y_handles = [DataHandle(
        buffer=allocate(machine, t % len(machine.numa_nodes),
                        tile_rows * DOUBLE, label=f"y[{rank}][{t}]"),
        home_rank=rank, label=f"y{t}") for t in range(n_tiles)]
    return a_handles, y_handles, p_local, p_remote, scalar


def _driver(rank: int, other: int, rt: RuntimeSystem, comm: RuntimeComm,
            data, n: int, tile_rows: int, iterations: int):
    """Main-thread process of one rank: submit tasks, exchange vectors."""
    a_handles, y_handles, p_local, p_remote, scalar = data
    half = n // 2
    sim = rt.sim

    for _it in range(iterations):
        # Vector exchange, overlapped with the local-column GEMVs.
        send = comm.isend(rank, other, p_local.buffer, tag=10 + rank)
        recv = comm.irecv(rank, other, p_remote.buffer, tag=10 + other)

        gate = rt.external_dependency()
        local_tasks = []
        for a, y in zip(a_handles, y_handles):
            t = Task(name="gemv_local",
                     cost=gemv_tile_cost(tile_rows, half),
                     accesses=[(a, AccessMode.R), (p_local, AccessMode.R),
                               (y, AccessMode.RW)],
                     rank=rank)
            rt.submit(t)
            local_tasks.append(t)
        remote_tasks = []
        for a, y in zip(a_handles, y_handles):
            t = Task(name="gemv_remote",
                     cost=gemv_tile_cost(tile_rows, half),
                     accesses=[(a, AccessMode.R), (p_remote, AccessMode.R),
                               (y, AccessMode.RW)],
                     rank=rank)
            t.deps = [gate] + [lt for lt in local_tasks
                               if lt.accesses[2][0] is y]
            rt.submit(t)
            remote_tasks.append(t)

        yield recv.done
        rt.complete_external(gate)
        yield rt.wait_all()

        # Dot products, then AXPY updates of x/r/p; the scalar exchange
        # (tiny latency-bound messages) flies while the AXPYs stream, as
        # in a pipelined CG where communications never find the memory
        # system idle.
        for y in y_handles:
            rt.submit(Task(name="dot", cost=dot_cost(tile_rows),
                           accesses=[(y, AccessMode.R)], rank=rank))
        yield rt.wait_all()
        for y in y_handles:
            rt.submit(Task(name="axpy",
                           cost=axpy_cost(tile_rows).scaled(3.0),
                           accesses=[(y, AccessMode.RW)], rank=rank))
        s_send = comm.isend(rank, other, scalar.buffer, tag=20 + rank)
        s_recv = comm.irecv(rank, other, scalar.buffer, tag=20 + other)
        yield s_recv.done
        yield send.done
        yield s_send.done
        yield rt.wait_all()


def run_cg(spec: MachineSpec | str = "henri", n: int = 120_000,
           tile_rows: Optional[int] = None, iterations: int = 3,
           n_workers: Optional[int] = None,
           polling: Optional[PollingSpec] = None,
           seed: int = 0,
           cluster: Optional[Cluster] = None,
           nodes: Sequence[int] = (0, 1),
           runtime: Optional[RuntimeSpec] = None) -> CGResult:
    """Run distributed CG on two simulated nodes; returns §6's metrics.

    ``tile_rows`` defaults to a partition fine enough to feed every
    worker of the machine (StarPU applications tile for the full core
    count regardless of how many workers are enabled).  Pass an existing
    *cluster* (and a two-node *nodes* placement) to run on a shared
    fabric next to other applications (see repro.core.apps).
    *runtime* replaces the machine's calibrated
    :class:`~repro.runtime.runtime.RuntimeSpec` (mechanism ablations).
    """
    if n % 2:
        raise ValueError("n must be even (block-row distribution)")
    nodes = tuple(nodes)
    if len(nodes) != 2:
        raise ValueError("CG is two-rank: nodes must name 2 nodes")
    if cluster is None:
        machine_spec = get_preset(spec) if isinstance(spec, str) else spec
        cluster = Cluster(machine_spec, n_nodes=max(nodes) + 1, seed=seed)
    else:
        machine_spec = cluster.spec
    if tile_rows is None:
        tile_rows = max(200, (n // 2) // (2 * machine_spec.n_cores))
    world = CommWorld(cluster, comm_placement="far", nodes=nodes)
    runtimes = {r: RuntimeSystem(world, r, n_workers=n_workers,
                                 polling=polling, spec=runtime)
                for r in (0, 1)}
    comm = RuntimeComm(world, runtimes)
    for rt in runtimes.values():
        rt.start()

    data = {r: _build_rank_data(world.rank(r).machine, r, n, tile_rows)
            for r in (0, 1)}
    snapshots = {r: world.rank(r).machine.counters.snapshot()
                 for r in (0, 1)}
    t0 = cluster.sim.now
    drivers = [cluster.sim.process(
        _driver(r, 1 - r, runtimes[r], comm, data[r], n, tile_rows,
                iterations)) for r in (0, 1)]
    cluster.sim.run()
    for d in drivers:
        if not d.ok:  # surface driver errors
            _ = d.value
    duration = cluster.sim.now - t0
    for rt in runtimes.values():
        rt.shutdown()
    cluster.sim.run()

    worker_cores = [w.core_id for rt in runtimes.values()
                    for w in rt.workers]
    stalls = []
    for r in (0, 1):
        machine = world.rank(r).machine
        agg = machine.counters.delta(snapshots[r])
        denom = duration * len(machine.cores)
        if denom > 0:
            stalls.append(agg.mem_stall / denom)
    total_sent = sum(s.bytes_sent for s in comm.send_stats.values())
    total_msgs = sum(s.messages for s in comm.send_stats.values())
    return CGResult(
        n=n, iterations=iterations,
        n_workers=len(runtimes[0].workers),
        duration=duration,
        sending_bandwidth=comm.sending_bandwidth(),
        stall_fraction=float(np.mean(stalls)) if stalls else 0.0,
        bytes_sent=total_sent,
        messages=total_msgs,
    )
