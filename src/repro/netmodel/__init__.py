"""Network performance model (LogP-style overheads + wire protocols).

* :mod:`repro.netmodel.logp` — software overheads in CPU cycles (so they
  scale with core frequency, the §3.1 mechanism) and instantaneous LogP
  parameter sampling.
* :mod:`repro.netmodel.protocols` — the message engine: eager (PIO/copy)
  vs rendezvous (registration + DMA) protocols, including the congestion
  couplings that make communications and computations interfere.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".logp": ("LogPSample", "sample_logp"),
    ".protocols": ("ProtocolEngine", "TransferRecord"),
})

__all__ = ["LogPSample", "sample_logp", "ProtocolEngine", "TransferRecord"]
