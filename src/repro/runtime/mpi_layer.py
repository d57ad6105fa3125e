"""Distributed layer of the task runtime (starpu_mpi-like), §5.2–§5.3.

Messages issued through the runtime traverse a longer software stack
than plain MPI: request list → worker → communication thread → network
library.  :class:`RuntimeComm` wraps the plain point-to-point context
with:

* the per-message **software-stack overhead** (+38 µs on henri, §5.2);
* the **lock-contention delay** caused by polling workers on both the
  sending and receiving node (§5.4);
* the **NUMA-mismatch penalty** when the transmitted data does not live
  on the communication thread's NUMA node (§5.3, Figure 8);

and it accumulates the paper's §6 metric: *sending bandwidth* — bytes
sent divided by the time the sending side spent in sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.mpi.comm import CommWorld
from repro.mpi.p2p import P2PContext, Request
from repro.runtime.runtime import RuntimeSpec, RuntimeSystem
from repro.runtime.scheduler import PollingSpec

__all__ = ["SendStats", "RuntimeComm"]


@dataclass
class SendStats:
    """Per-node accounting of time spent sending (§6's profiling metric)."""

    bytes_sent: float = 0.0
    time_in_send: float = 0.0
    messages: int = 0

    @property
    def sending_bandwidth(self) -> float:
        """Network bandwidth as perceived by the sending node."""
        if self.time_in_send <= 0:
            return 0.0
        return self.bytes_sent / self.time_in_send


class RuntimeComm(P2PContext):
    """Point-to-point messaging through the task runtime's comm thread.

    Builds one :class:`RuntimeSystem` per rank of *world* (in rank
    order, before the matching engine) from the same *n_workers*,
    *polling* and *spec*; they are not started.
    """

    def __init__(self, world: CommWorld, n_workers: Optional[int] = None,
                 polling: Optional[PollingSpec] = None,
                 spec: Optional[RuntimeSpec] = None):
        self.runtimes: Dict[int, RuntimeSystem] = {
            r: RuntimeSystem(world, r, n_workers=n_workers,
                             polling=polling, spec=spec)
            for r in range(len(world.ranks))}
        super().__init__(world)
        self.send_stats: Dict[int, SendStats] = {
            node: SendStats() for node in self.runtimes}

    @staticmethod
    def _memory_pressure(machine) -> float:
        """Mean utilisation over the machine's memory controllers (the
        runtime's shared structures are spread across the node)."""
        utils = [machine.net.utilization(n.controller)
                 for n in machine.numa_nodes]
        return sum(utils) / len(utils)

    def _transfer_job(self, send_req: Request, recv_req: Request,
                      size: int):
        src_rt = self.runtimes[send_req.src]
        dst_rt = self.runtimes[send_req.dst]
        sim = self.world.sim
        start = sim.now

        # Sender-side software stack: request list, worker handoff, comm
        # thread pickup — plus the lock contention of polling workers and
        # the NUMA penalty if the data is remote to the comm thread.
        # Half the stack runs at submission, half during progression and
        # completion; each half stalls under the memory pressure live at
        # that moment.
        src_rank = self.world.rank(send_req.src)
        extra_send = (src_rt.spec.send_overhead_s
                      + src_rt.scheduler.message_lock_delay())
        comm_numa = src_rank.machine.numa_of_core(src_rank.comm_core).id
        if send_req.buffer.numa_id != comm_numa:
            extra_send += src_rt.spec.numa_mismatch_penalty_s
        yield 0.5 * extra_send * src_rt.spec.stack_inflation(
            self._memory_pressure(src_rank.machine))

        record = yield from super()._transfer_job(send_req, recv_req, size)

        yield 0.5 * extra_send * src_rt.spec.stack_inflation(
            self._memory_pressure(src_rank.machine))

        # Receiver-side stack (detection, request completion, callback).
        dst_rank = self.world.rank(send_req.dst)
        extra_recv = (dst_rt.spec.recv_overhead_s
                      + dst_rt.scheduler.message_lock_delay())
        dst_comm_numa = dst_rank.machine.numa_of_core(dst_rank.comm_core).id
        if recv_req.buffer.numa_id != dst_comm_numa:
            extra_recv += dst_rt.spec.numa_mismatch_penalty_s
        extra_recv *= dst_rt.spec.stack_inflation(
            self._memory_pressure(dst_rank.machine))
        yield extra_recv

        # Stretch the record to cover the runtime stack, so that latency
        # measured through the runtime includes it (like the paper's
        # StarPU ping-pong does).
        record.end = sim.now
        record.start = start
        stats = self.send_stats[send_req.src]
        stats.bytes_sent += size
        stats.time_in_send += record.duration
        stats.messages += 1
        return record

    def sending_bandwidth(self) -> float:
        """Average §6 sending bandwidth over the nodes that sent."""
        values = [s.sending_bandwidth for s in self.send_stats.values()
                  if s.messages > 0]
        return sum(values) / len(values) if values else 0.0
