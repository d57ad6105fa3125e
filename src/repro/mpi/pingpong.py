"""NetPIPE-style ping-pong benchmark (§2.1 of the paper).

Latency is the duration of one message (half the round trip, "time
elapsed between the beginning of MPI_Send and the end of MPI_Recv");
bandwidth divides the transmitted size by that latency.  Unless stated
otherwise the paper measures latency on 4 B and asymptotic bandwidth on
64 MB — exposed here as :data:`LATENCY_SIZE` and :data:`BANDWIDTH_SIZE`.

Buffers are recycled across iterations to exploit the registration cache,
exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional

import numpy as np

from repro.hardware.memory import Buffer
from repro.mpi.comm import CommWorld

__all__ = ["PingPong", "PingPongResult", "LATENCY_SIZE", "BANDWIDTH_SIZE"]

LATENCY_SIZE = 4                    # one float (§2.1)
BANDWIDTH_SIZE = 64 * 1024 * 1024   # 64 MB (§2.1)


@dataclass
class PingPongResult:
    """Per-iteration one-way latencies for one message size."""

    size: int
    latencies: np.ndarray            # seconds, one entry per half ping-pong

    @property
    def median_latency(self) -> float:
        return float(np.median(self.latencies))

    @property
    def p10_latency(self) -> float:
        return float(np.quantile(self.latencies, 0.1))

    @property
    def p90_latency(self) -> float:
        return float(np.quantile(self.latencies, 0.9))

    @property
    def bandwidth(self) -> float:
        """Median goodput, bytes/s."""
        med = self.median_latency
        return self.size / med if med > 0 else 0.0

    @property
    def p10_bandwidth(self) -> float:
        p90 = self.p90_latency
        return self.size / p90 if p90 > 0 else 0.0

    @property
    def p90_bandwidth(self) -> float:
        p10 = self.p10_latency
        return self.size / p10 if p10 > 0 else 0.0

    def summary(self) -> str:
        return (f"size={self.size}B median={self.median_latency*1e6:.2f}us "
                f"bw={self.bandwidth/1e9:.2f}GB/s n={len(self.latencies)}")


class PingPong:
    """Ping-pong driver between two ranks of a :class:`CommWorld`.

    Parameters
    ----------
    world:
        The communicator world (2+ ranks).
    rank_a, rank_b:
        The two endpoints.
    data_numa_a, data_numa_b:
        NUMA node of the ping-pong buffers on each side; defaults to the
        NIC's NUMA node ("data near the NIC").
    """

    def __init__(self, world: CommWorld, rank_a: int = 0, rank_b: int = 1,
                 data_numa_a: Optional[int] = None,
                 data_numa_b: Optional[int] = None):
        if len(world) < 2:
            raise ValueError("ping-pong needs at least two ranks")
        if rank_a == rank_b:
            raise ValueError("ping-pong endpoints must differ")
        self.world = world
        self.rank_a = world.rank(rank_a)
        self.rank_b = world.rank(rank_b)
        self.data_numa_a = (data_numa_a if data_numa_a is not None
                            else self.rank_a.machine.nic_numa.id)
        self.data_numa_b = (data_numa_b if data_numa_b is not None
                            else self.rank_b.machine.nic_numa.id)
        self._bufs: dict = {}

    # ------------------------------------------------------------------
    def _buffers(self, size: int) -> tuple[Buffer, Buffer]:
        """Recycled per-size buffer pair (registration-cache friendly)."""
        pair = self._bufs.get(size)
        if pair is None:
            pair = (self.rank_a.buffer(size, self.data_numa_a, "pp_a"),
                    self.rank_b.buffer(size, self.data_numa_b, "pp_b"))
            self._bufs[size] = pair
        return pair

    def process(self, size: int, reps: int,
                out: Optional[List[float]] = None,
                warmup: int = 2,
                more: Optional[Callable[[int], bool]] = None,
                keep: Optional[Callable[[], bool]] = None) -> Generator:
        """Simulation process running ping-pongs of *size* bytes.

        Iteration ``it`` starts while ``more(it)`` holds (default: ``it <
        warmup + reps``).  Each iteration past the first *warmup* appends
        its two one-way latencies to *out*, unless ``keep()``, asked once
        the iteration finishes, is false.  Returns the list.
        """
        if out is None:
            out = []
        if more is None:
            def more(it: int) -> bool:
                return it < warmup + reps
        engine = self.world.engine
        buf_a, buf_b = self._buffers(size)
        a, b = self.rank_a, self.rank_b
        it = 0
        while more(it):
            rec_ab = yield self.world.sim.process(engine.half_transfer(
                a.node_id, a.comm_core, buf_a,
                b.node_id, b.comm_core, buf_b, size))
            rec_ba = yield self.world.sim.process(engine.half_transfer(
                b.node_id, b.comm_core, buf_b,
                a.node_id, a.comm_core, buf_a, size))
            if it >= warmup and (keep is None or keep()):
                out.append(rec_ab.duration)
                out.append(rec_ba.duration)
            it += 1
        return out

    def run(self, size: int, reps: int = 25,
            warmup: int = 2) -> PingPongResult:
        """Drive the simulation until *reps* ping-pongs complete."""
        latencies: List[float] = []
        proc = self.world.sim.process(
            self.process(size, reps, out=latencies, warmup=warmup))
        self.world.sim.run()
        if not proc.ok:  # pragma: no cover - surfacing process errors
            _ = proc.value
        return PingPongResult(size=size, latencies=np.asarray(latencies))
