"""The two-rank harness every §6 application runs on.

§6 runs CG and GEMM on the same StarPU setup — two nodes, the
communication thread far from the NIC, one runtime per node — and reads
the same metrics from each: the sending bandwidth and the memory-stall
fraction.  :func:`run_two_ranks` builds that setup, runs one driver
process per rank, and returns a :class:`TwoRankResult`; an application
supplies only its driver and, optionally, its per-rank data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.hardware.presets import MachineSpec, get_preset
from repro.hardware.topology import Cluster
from repro.mpi.comm import CommWorld
from repro.runtime.mpi_layer import RuntimeComm
from repro.runtime.runtime import RuntimeSpec, RuntimeSystem

__all__ = ["TwoRankResult", "run_two_ranks"]

#: ``driver(rt, comm, data)``: the main-thread process of one rank.
Driver = Callable[[RuntimeSystem, RuntimeComm, Any], Generator]


@dataclass
class TwoRankResult:
    """Measured outcome of one two-rank application run."""

    n_workers: int
    duration: float
    sending_bandwidth: float          # §6 metric, bytes/s (avg both nodes)
    stall_fraction: float             # memory-stalled share of all cycles
    bytes_sent: float
    messages: int


def run_two_ranks(spec: MachineSpec | str, driver: Driver,
                  n_workers: Optional[int] = None,
                  runtime: Optional[RuntimeSpec] = None,
                  rank_data: Optional[Callable[[Any, int], Any]] = None
                  ) -> TwoRankResult:
    """Run *driver* on both ranks of a fresh two-node cluster.

    ``rank_data(machine, rank)``, when given, builds each rank's data
    once the runtimes have started and before the counters are
    snapshotted; the driver receives it (or ``None``).  *runtime*
    replaces the machine's calibrated
    :class:`~repro.runtime.runtime.RuntimeSpec` (mechanism ablations).

    A driver that failed re-raises its own error, before any driver
    that never finished (one still waiting on a failed peer) is named.
    """
    machine_spec = get_preset(spec) if isinstance(spec, str) else spec
    cluster = Cluster(machine_spec, n_nodes=2)
    world = CommWorld(cluster, comm_placement="far")
    comm = RuntimeComm(world, n_workers=n_workers, spec=runtime)
    runtimes = comm.runtimes
    for rt in runtimes.values():
        rt.start()

    data = {r: rank_data(world.rank(r).machine, r) if rank_data else None
            for r in (0, 1)}
    snapshots = {r: world.rank(r).machine.counters.snapshot()
                 for r in (0, 1)}
    sim = cluster.sim
    t0 = sim.now
    drivers = [sim.process(driver(runtimes[r], comm, data[r]))
               for r in (0, 1)]
    sim.run()
    for d in drivers:
        if d.triggered and not d.ok:
            _ = d.value
    for r, d in enumerate(drivers):
        if not d.triggered:
            raise RuntimeError(f"rank {r}'s driver never finished")
    duration = sim.now - t0
    for rt in runtimes.values():
        rt.shutdown()
    sim.run()

    stalls = []
    for r in (0, 1):
        machine = world.rank(r).machine
        agg = machine.counters.delta(snapshots[r])
        denom = duration * len(machine.cores)
        if denom > 0:
            stalls.append(agg.mem_stall / denom)
    return TwoRankResult(
        n_workers=len(runtimes[0].workers),
        duration=duration,
        sending_bandwidth=comm.sending_bandwidth(),
        stall_fraction=float(np.mean(stalls)) if stalls else 0.0,
        bytes_sent=sum(s.bytes_sent for s in comm.send_stats.values()),
        messages=sum(s.messages for s in comm.send_stats.values()),
    )
