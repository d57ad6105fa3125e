"""Tagged point-to-point messaging with MPI matching semantics.

``isend``/``irecv`` return :class:`Request` objects whose ``done`` event
fires when the transfer completes.  A message transfer starts once both
sides have posted (rendezvous-style matching; the underlying protocol
engine then decides eager vs rendezvous *timing* from the size).

Each node's communication thread executes transfers serially — the
paper's methodology uses exactly one thread for all communications of a
host (§2.1), and this serialisation is what the task-based runtime layer
inherits (§5).
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.hardware.memory import Buffer
from repro.mpi.comm import CommWorld
from repro.netmodel.protocols import TransferRecord, TransportError
from repro.obs.context import active_telemetry
from repro.sim import Event

__all__ = ["Request", "P2PContext"]

logger = logging.getLogger(__name__)


@dataclass
class Request:
    """Handle for a pending isend/irecv."""

    kind: str                    # "send" | "recv"
    src: int
    dst: int
    tag: int
    buffer: Buffer = field(repr=False)
    size: int = 0
    done: Event = field(default=None, repr=False)
    record: Optional[TransferRecord] = None

    @property
    def completed(self) -> bool:
        return self.done is not None and self.done.triggered


class _SerialQueue:
    """FIFO execution of generator jobs (one comm thread per node)."""

    def __init__(self, sim):
        self.sim = sim
        self._jobs: Deque[Tuple[object, Event]] = deque()
        self._running = False

    def submit(self, job) -> Event:
        """Queue generator *job*; returns an event fired with its result."""
        done = self.sim.event()
        self._jobs.append((job, done))
        if not self._running:
            self._running = True
            self.sim.process(self._drain())
        return done

    def _drain(self):
        while self._jobs:
            job, done = self._jobs.popleft()
            try:
                result = yield self.sim.process(job)
            except Exception as err:  # propagate to the waiter
                done.fail(err)
                continue
            done.succeed(result)
        self._running = False


class P2PContext:
    """Matching engine + per-node serial communication threads."""

    def __init__(self, world: CommWorld):
        self.world = world
        self.sim = world.sim
        self._pending_sends: Dict[Tuple[int, int, int], Deque[Request]] = {}
        self._pending_recvs: Dict[Tuple[int, int, int], Deque[Request]] = {}
        self._queues: Dict[int, _SerialQueue] = {
            i: _SerialQueue(self.sim) for i in range(len(world.ranks))}
        self.transfers: List[TransferRecord] = []
        self.failures: List[BaseException] = []

    # -- public API --------------------------------------------------------
    def isend(self, src: int, dst: int, buffer: Buffer, tag: int = 0,
              size: Optional[int] = None) -> Request:
        """Post a non-blocking send of *buffer* from rank src to rank dst."""
        req = Request(kind="send", src=src, dst=dst, tag=tag, buffer=buffer,
                      size=size if size is not None else buffer.size,
                      done=self.sim.event())
        self._match(req)
        return req

    def irecv(self, dst: int, src: int, buffer: Buffer, tag: int = 0,
              size: Optional[int] = None) -> Request:
        """Post a non-blocking receive into *buffer* on rank dst."""
        req = Request(kind="recv", src=src, dst=dst, tag=tag, buffer=buffer,
                      size=size if size is not None else buffer.size,
                      done=self.sim.event())
        self._match(req)
        return req

    def cancel(self, req: Request) -> bool:
        """Withdraw an *unmatched* request.

        Returns True if *req* was still waiting for a partner: it is
        removed from the pending queues and its ``done`` event fails
        with :class:`TransportError` so waiters unblock.  A request that
        already matched started a transfer on the communication thread
        and can no longer be cancelled (mirroring the fluid layer,
        where only the owner of a still-running flow may stop it) —
        then, as for an already-completed one, returns False.
        """
        key = (req.src, req.dst, req.tag)
        pending = (self._pending_sends if req.kind == "send"
                   else self._pending_recvs)
        waiting = pending.get(key)
        if not waiting or req not in waiting:
            return False
        waiting.remove(req)
        if not waiting:
            del pending[key]
        req.done.fail(TransportError(
            "request cancelled", src=req.src, dst=req.dst, size=req.size))
        return True

    # -- matching ----------------------------------------------------------
    def _match(self, req: Request) -> None:
        key = (req.src, req.dst, req.tag)
        mine = (self._pending_sends if req.kind == "send"
                else self._pending_recvs)
        theirs = (self._pending_recvs if req.kind == "send"
                  else self._pending_sends)
        waiting = theirs.get(key)
        if waiting:
            peer = waiting.popleft()
            if not waiting:
                del theirs[key]
            send_req = req if req.kind == "send" else peer
            recv_req = peer if req.kind == "send" else req
            self._launch(send_req, recv_req)
        else:
            mine.setdefault(key, deque()).append(req)

    def _transfer_job(self, send_req: Request, recv_req: Request,
                      size: int):
        """Generator executing one matched transfer; overridable (the
        task-based runtime layer wraps it with its extra software stack)."""
        world = self.world
        src_rank = world.rank(send_req.src)
        dst_rank = world.rank(send_req.dst)
        record = yield world.sim.process(world.engine.half_transfer(
            src_node=src_rank.node_id,
            src_core=src_rank.comm_core,
            src_buf=send_req.buffer,
            dst_node=dst_rank.node_id,
            dst_core=dst_rank.comm_core,
            dst_buf=recv_req.buffer,
            size=size,
        ))
        return record

    def _launch(self, send_req: Request, recv_req: Request) -> None:
        size = min(send_req.size, recv_req.size)
        done = self._queues[send_req.src].submit(
            self._transfer_job(send_req, recv_req, size))

        # Telemetry: span from queue submission to completion, showing
        # serial-queue wait on top of the protocol-level transfer span.
        tele = active_telemetry()
        span = None
        src_machine = None
        if tele is not None:
            from repro.obs.telemetry import QUEUE_TID
            src_machine = self.world.rank(send_req.src).machine
            span = tele.begin_span(
                src_machine, QUEUE_TID, f"p2p {size}B", "p2p",
                dst=send_req.dst, tag=send_req.tag)

        def on_done(event):
            if span is not None:
                tele.finish_span(src_machine, span, ok=event.ok)
            if not event.ok:
                exc = event._exception  # noqa: SLF001
                logger.warning("transfer %d->%d (%dB, tag %d) failed: %s",
                               send_req.src, send_req.dst, size,
                               send_req.tag, exc)
                self.failures.append(exc)
                send_req.done.fail(exc)
                # The receive side sees the same transport failure; any
                # other error is wrapped so both waiters get *an*
                # exception without sharing a traceback-bearing object.
                recv_req.done.fail(
                    exc if isinstance(exc, TransportError)
                    else RuntimeError(str(exc)))
                return
            record: TransferRecord = event.value
            send_req.record = record
            recv_req.record = record
            self.transfers.append(record)
            send_req.done.succeed(record)
            recv_req.done.succeed(record)

        done.add_callback(on_done)
