"""Network performance model (LogP-style overheads + wire protocols).

* :mod:`repro.netmodel.protocols` — the message engine: eager (PIO/copy)
  vs rendezvous (registration + DMA) protocols, including the congestion
  couplings that make communications and computations interfere.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".protocols": ("ProtocolEngine", "TransferRecord"),
})

__all__ = ["ProtocolEngine", "TransferRecord"]
