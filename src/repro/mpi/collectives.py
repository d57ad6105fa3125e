"""Collective communication built on the point-to-point layer.

The paper deliberately scopes to point-to-point ping-pongs ("analyzing
also collective communications would be beyond the scope of this
article", §2.1).  This module provides the natural extension so the same
interference questions can be asked of collectives:

* :func:`bcast`     — binomial tree (log₂p rounds of p2p messages);
* :func:`reduce`    — mirrored binomial tree plus per-hop reduction cost;
* :func:`allreduce` — reduce + bcast for small payloads, ring
  reduce-scatter/allgather for large ones (the classic Rabenseifner
  switch);
* :func:`barrier`   — zero-byte allreduce.

All collectives are simulation processes returning a
:class:`CollectiveRecord`; they go through the normal protocol engine,
so memory contention, placement and frequency effects apply to every
constituent message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.hardware.memory import Buffer
from repro.mpi.comm import CommWorld
from repro.mpi.p2p import P2PContext

__all__ = ["CollectiveRecord", "CollectiveContext",
           "RING_ALLREDUCE_THRESHOLD"]

# Above this payload, allreduce switches from tree to ring.
RING_ALLREDUCE_THRESHOLD = 64 * 1024

# Cost of combining one byte during a reduction (memory-bound SUM).
REDUCE_BYTES_FACTOR = 2.0   # read partial + operand per payload byte


@dataclass
class CollectiveRecord:
    """Timing of one collective operation."""

    op: str
    size: int
    n_ranks: int
    start: float
    end: float
    algorithm: str = ""
    messages: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class CollectiveContext:
    """Collectives over all ranks of a :class:`CommWorld`."""

    def __init__(self, world: CommWorld,
                 p2p: Optional[P2PContext] = None):
        if len(world) < 2:
            raise ValueError("collectives need at least two ranks")
        self.world = world
        self.p2p = p2p if p2p is not None else P2PContext(world)
        self._tag = 1 << 20   # private tag space
        self._buffers: Dict[tuple, Buffer] = {}

    # -- helpers ----------------------------------------------------------
    def _next_tag(self) -> int:
        self._tag += 1
        return self._tag

    def _buf(self, rank: int, size: int, label: str) -> Buffer:
        key = (rank, size, label)
        buf = self._buffers.get(key)
        if buf is None:
            buf = self.world.rank(rank).buffer(max(size, 1), label=label)
            self._buffers[key] = buf
        return buf

    def _send_recv(self, src: int, dst: int, size: int, tag: int):
        """Start a matched transfer; returns the recv request."""
        self.p2p.isend(src, dst, self._buf(src, size, "coll_s"), tag=tag,
                       size=size)
        return self.p2p.irecv(dst, src, self._buf(dst, size, "coll_r"),
                              tag=tag, size=size)

    def _reduce_compute(self, rank: int, size: int) -> Generator:
        """Local combine cost at *rank* for *size* payload bytes."""
        if size <= 0:
            return
        machine = self.world.rank(rank).machine
        nbytes = size * REDUCE_BYTES_FACTOR
        flow = machine.net.transfer(
            machine.load_path(self.world.rank(rank).comm_core,
                              machine.nic_numa.id),
            size=nbytes, demand=machine.spec.memory.per_core_bw,
            label="reduce_op")
        yield flow.done

    # -- collectives ----------------------------------------------------------
    def bcast(self, root: int = 0, size: int = 4) -> Generator:
        """Binomial-tree broadcast; returns a :class:`CollectiveRecord`."""
        world = self.world
        p = len(world)
        start = world.sim.now
        rounds = max(1, math.ceil(math.log2(p)))
        # Virtual ranks relative to root.
        have = {root}
        messages = 0
        for r in range(rounds):
            stride = 1 << r
            recvs = []
            for vsrc in range(stride):
                src = (root + vsrc) % p
                vdst = vsrc + stride
                if vdst >= p or src not in have:
                    continue
                dst = (root + vdst) % p
                tag = self._next_tag()
                recvs.append((dst, self._send_recv(src, dst, size, tag)))
                messages += 1
            for dst, req in recvs:
                yield req.done
                have.add(dst)
        return CollectiveRecord(op="bcast", size=size, n_ranks=p,
                                start=start, end=world.sim.now,
                                algorithm="binomial", messages=messages)

    def reduce(self, root: int = 0, size: int = 4) -> Generator:
        """Binomial-tree reduction towards *root*."""
        world = self.world
        p = len(world)
        start = world.sim.now
        rounds = max(1, math.ceil(math.log2(p)))
        messages = 0
        for r in range(rounds):
            stride = 1 << r
            pending = []
            for vdst in range(0, p, stride * 2):
                vsrc = vdst + stride
                if vsrc >= p:
                    continue
                src = (root + vsrc) % p
                dst = (root + vdst) % p
                tag = self._next_tag()
                pending.append((dst, self._send_recv(src, dst, size, tag)))
                messages += 1
            for dst, req in pending:
                yield req.done
                yield from self._reduce_compute(dst, size)
        return CollectiveRecord(op="reduce", size=size, n_ranks=p,
                                start=start, end=world.sim.now,
                                algorithm="binomial", messages=messages)

    def allreduce(self, size: int = 4) -> Generator:
        """Tree (small) or ring (large) allreduce."""
        world = self.world
        p = len(world)
        start = world.sim.now
        if size <= RING_ALLREDUCE_THRESHOLD or p == 2:
            red = yield from self.reduce(root=0, size=size)
            bc = yield from self.bcast(root=0, size=size)
            return CollectiveRecord(
                op="allreduce", size=size, n_ranks=p, start=start,
                end=world.sim.now, algorithm="tree",
                messages=red.messages + bc.messages)
        # Ring: reduce-scatter + allgather, 2(p-1) chunked steps.
        chunk = max(1, size // p)
        messages = 0
        for phase in ("reduce_scatter", "allgather"):
            for step in range(p - 1):
                recvs = []
                for rank in range(p):
                    dst = (rank + 1) % p
                    tag = self._next_tag()
                    recvs.append((dst, self._send_recv(rank, dst, chunk,
                                                       tag)))
                    messages += 1
                for dst, req in recvs:
                    yield req.done
                    if phase == "reduce_scatter":
                        yield from self._reduce_compute(dst, chunk)
        return CollectiveRecord(op="allreduce", size=size, n_ranks=p,
                                start=start, end=world.sim.now,
                                algorithm="ring", messages=messages)

    def barrier(self) -> Generator:
        """Synchronise all ranks (zero-payload allreduce)."""
        record = yield from self.allreduce(size=0)
        return CollectiveRecord(op="barrier", size=0,
                                n_ranks=record.n_ranks,
                                start=record.start, end=record.end,
                                algorithm=record.algorithm,
                                messages=record.messages)

    # -- convenience driver ---------------------------------------------------
    def run(self, op: str, **kwargs) -> CollectiveRecord:
        """Run one collective to completion and return its record.

        Drives the simulation only until the collective finishes, so it
        composes with background activity (looping kernels) that would
        keep the event queue alive forever.
        """
        gen = getattr(self, op)(**kwargs)
        proc = self.world.sim.process(gen)
        self.world.sim.run(until=proc)
        return proc.value
