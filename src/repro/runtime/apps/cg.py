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

from functools import partial
from typing import List, Optional

from repro.hardware.memory import allocate
from repro.hardware.presets import MachineSpec, get_preset
from repro.kernels.blas import DOUBLE, axpy_cost, dot_cost, gemv_tile_cost
from repro.runtime.apps.harness import TwoRankResult, run_two_ranks
from repro.runtime.mpi_layer import RuntimeComm
from repro.runtime.runtime import RuntimeSpec, RuntimeSystem
from repro.runtime.task import AccessMode, DataHandle, Task

__all__ = ["run_cg"]


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


def _driver(rt: RuntimeSystem, comm: RuntimeComm, data, n: int,
            tile_rows: int, iterations: int):
    """Main-thread process of one rank: submit tasks, exchange vectors."""
    a_handles, y_handles, p_local, p_remote, scalar = data
    half = n // 2
    rank = rt.rank_id
    other = 1 - rank

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
           runtime: Optional[RuntimeSpec] = None) -> TwoRankResult:
    """Run distributed CG on two simulated nodes; returns §6's metrics.

    ``tile_rows`` defaults to a partition fine enough to feed every
    worker of the machine (StarPU applications tile for the full core
    count regardless of how many workers are enabled).  *runtime*
    replaces the machine's calibrated
    :class:`~repro.runtime.runtime.RuntimeSpec` (mechanism ablations).
    """
    if n % 2:
        raise ValueError("n must be even (block-row distribution)")
    machine_spec = get_preset(spec) if isinstance(spec, str) else spec
    if tile_rows is None:
        tile_rows = max(200, (n // 2) // (2 * machine_spec.n_cores))
    return run_two_ranks(
        machine_spec,
        partial(_driver, n=n, tile_rows=tile_rows, iterations=iterations),
        n_workers=n_workers, runtime=runtime,
        rank_data=partial(_build_rank_data, n=n, tile_rows=tile_rows))
