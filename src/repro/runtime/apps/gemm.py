"""Distributed tiled GEMM on the task runtime (§6).

``C = A·B`` on two ranks with block-row distribution of A, B and C:

``C_r = A_{r,0}·B_0 + A_{r,1}·B_1`` — the ``B_{1-r}`` half lives on the
other rank and is streamed over, tile row by tile row (rendezvous-sized
messages), overlapped with the local-half GEMM tasks.

GEMM tiles reuse operands ~b times, so even the full worker count keeps
the memory system below saturation; the paper measures only ~20 %
memory-stall cycles and ~20 % sending-bandwidth loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.hardware.memory import allocate
from repro.hardware.presets import MachineSpec, get_preset
from repro.hardware.topology import Cluster
from repro.kernels.blas import DOUBLE, gemm_tile_cost
from repro.mpi.comm import CommWorld
from repro.runtime.mpi_layer import RuntimeComm
from repro.runtime.runtime import RuntimeSpec, RuntimeSystem
from repro.runtime.scheduler import PollingSpec
from repro.runtime.task import AccessMode, DataHandle, Task

__all__ = ["GEMMResult", "run_gemm"]


@dataclass
class GEMMResult:
    """Measured outcome of one distributed GEMM run."""

    n: int
    tile: int
    n_workers: int
    duration: float
    sending_bandwidth: float
    stall_fraction: float
    bytes_sent: float
    messages: int

    def summary(self) -> str:
        return (f"GEMM n={self.n} b={self.tile} workers={self.n_workers}: "
                f"{self.duration*1e3:.1f} ms, "
                f"send bw {self.sending_bandwidth/1e9:.2f} GB/s, "
                f"stalls {self.stall_fraction*100:.0f}%")


def _tile_handles(machine, rank: int, n_tiles: int, tile_bytes: int,
                  label: str) -> List[DataHandle]:
    """Tiles allocated round-robin over NUMA nodes (first-touch)."""
    handles = []
    for t in range(n_tiles):
        numa = t % len(machine.numa_nodes)
        buf = allocate(machine, numa, tile_bytes, label=f"{label}[{rank}][{t}]")
        handles.append(DataHandle(buffer=buf, home_rank=rank,
                                  label=f"{label}{t}"))
    return handles


def _driver(rank: int, other: int, rt: RuntimeSystem, comm: RuntimeComm,
            n: int, b: int):
    """Submit C-tile tasks; stream the remote B half row-block by
    row-block, overlapping with the local-half GEMMs."""
    machine = rt.machine
    half = n // 2
    rows_i = max(1, half // b)          # C row tiles on this rank
    cols_j = max(1, n // b)             # C column tiles
    k_steps = max(1, half // b)         # accumulation depth per half

    row_bytes = b * n * DOUBLE          # one b-row slab of B
    local_b = _tile_handles(machine, rank, k_steps, row_bytes, "Bl")
    remote_b = _tile_handles(machine, rank, k_steps, row_bytes, "Br")
    c_tiles = _tile_handles(machine, rank, rows_i * cols_j,
                            b * b * DOUBLE, "C")

    # Stream the remote half of B (one message per row-slab).
    recvs = [comm.irecv(rank, other, h.buffer, tag=100 + k)
             for k, h in enumerate(remote_b)]
    sends = [comm.isend(rank, other, h.buffer, tag=100 + k)
             for k, h in enumerate(local_b)]

    per_tile = gemm_tile_cost(b, cache_resident_fraction=0.5)
    gates = [rt.external_dependency() for _ in remote_b]

    for i in range(rows_i):
        for j in range(cols_j):
            c = c_tiles[i * cols_j + j]
            # Local-half accumulation: ready immediately.
            t_local = Task(name=f"gemm_local[{i},{j}]",
                           cost=per_tile.scaled(k_steps),
                           accesses=[(local_b[(i + j) % k_steps],
                                      AccessMode.R),
                                     (c, AccessMode.RW)],
                           rank=rank)
            rt.submit(t_local)
            # Remote-half accumulation: gated on the slab arrivals.
            t_remote = Task(name=f"gemm_remote[{i},{j}]",
                            cost=per_tile.scaled(k_steps),
                            accesses=[(remote_b[(i + j) % k_steps],
                                       AccessMode.R),
                                      (c, AccessMode.RW)],
                            rank=rank)
            t_remote.deps = [gates[(i + j) % k_steps], t_local]
            rt.submit(t_remote)

    for recv, gate in zip(recvs, gates):
        yield recv.done
        rt.complete_external(gate)
    yield rt.wait_all()
    for send in sends:
        yield send.done


def run_gemm(spec: MachineSpec | str = "henri", n: int = 4096,
             tile: int = 128, n_workers: Optional[int] = None,
             polling: Optional[PollingSpec] = None,
             seed: int = 0,
             cluster: Optional[Cluster] = None,
             nodes: Sequence[int] = (0, 1),
             runtime: Optional[RuntimeSpec] = None) -> GEMMResult:
    """Run distributed GEMM on two simulated nodes; returns §6 metrics.

    Pass an existing *cluster* (and a two-node *nodes* placement) to run
    on a shared fabric — e.g. one rank pair of a larger topology, next
    to other applications (see repro.core.apps).  *runtime* replaces the
    machine's calibrated :class:`~repro.runtime.runtime.RuntimeSpec`
    (mechanism ablations).
    """
    if n % 2 or n % tile:
        raise ValueError("n must be even and a multiple of the tile size")
    nodes = tuple(nodes)
    if len(nodes) != 2:
        raise ValueError("GEMM is two-rank: nodes must name 2 nodes")
    if cluster is None:
        machine_spec = get_preset(spec) if isinstance(spec, str) else spec
        cluster = Cluster(machine_spec, n_nodes=max(nodes) + 1, seed=seed)
    world = CommWorld(cluster, comm_placement="far", nodes=nodes)
    runtimes = {r: RuntimeSystem(world, r, n_workers=n_workers,
                                 polling=polling, spec=runtime)
                for r in (0, 1)}
    comm = RuntimeComm(world, runtimes)
    for rt in runtimes.values():
        rt.start()

    snapshots = {r: world.rank(r).machine.counters.snapshot()
                 for r in (0, 1)}
    t0 = cluster.sim.now
    drivers = [cluster.sim.process(
        _driver(r, 1 - r, runtimes[r], comm, n, tile)) for r in (0, 1)]
    cluster.sim.run()
    for d in drivers:
        if not d.ok:
            _ = d.value
    duration = cluster.sim.now - t0
    for rt in runtimes.values():
        rt.shutdown()
    cluster.sim.run()

    stalls = []
    for r in (0, 1):
        machine = world.rank(r).machine
        agg = machine.counters.delta(snapshots[r])
        denom = duration * len(machine.cores)
        if denom > 0:
            stalls.append(agg.mem_stall / denom)
    total_sent = sum(s.bytes_sent for s in comm.send_stats.values())
    total_msgs = sum(s.messages for s in comm.send_stats.values())
    return GEMMResult(
        n=n, tile=tile, n_workers=len(runtimes[0].workers),
        duration=duration,
        sending_bandwidth=comm.sending_bandwidth(),
        stall_fraction=float(np.mean(stalls)) if stalls else 0.0,
        bytes_sent=total_sent, messages=total_msgs,
    )
