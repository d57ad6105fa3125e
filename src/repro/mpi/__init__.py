"""MPI-like message library on top of the protocol engine.

* :mod:`repro.mpi.comm` — :class:`CommWorld`: ranks, comm-thread core
  binding, per-rank default buffers.
* :mod:`repro.mpi.p2p` — tagged ``isend``/``irecv`` with MPI matching
  semantics, executed by each rank's progression loop.
* :mod:`repro.mpi.pingpong` — the NetPIPE-style ping-pong benchmark the
  whole paper is built on (§2.1): latency is the half round-trip,
  bandwidth is size divided by that latency.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".comm": ("CommWorld", "Rank"),
    ".p2p": ("P2PContext", "Request"),
    ".pingpong": ("PingPong", "PingPongResult"),
})

__all__ = ["CommWorld", "Rank", "P2PContext", "Request",
           "PingPong", "PingPongResult"]
