"""Machine model: topology, frequencies, memory system, NIC, counters.

The hardware layer turns a declarative :class:`~repro.hardware.presets.MachineSpec`
into live simulation objects:

* :mod:`repro.hardware.presets` — calibrated specs for the paper's four
  clusters (``henri``, ``bora``, ``billy``, ``pyxis``).
* :mod:`repro.hardware.topology` — :class:`Machine` (sockets, NUMA nodes,
  cores, NIC) and :class:`Cluster` (several machines wired together).
* :mod:`repro.hardware.frequency` — per-core DVFS with turbo bins and
  AVX-512 licenses, plus the uncore frequency model.
* :mod:`repro.hardware.memory` — memory controllers and interconnect
  links as fluid resources; path computation for core and DMA traffic.
* :mod:`repro.hardware.nic` — the NIC: PIO path timing under congestion,
  DMA flows with efficiency degradation, registration cache.
* :mod:`repro.hardware.counters` — per-core cycle accounting (busy /
  memory-stalled), the simulated equivalent of ``perf``/pmu-tools.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".presets": (
        "MachineSpec", "TurboTable", "CoreFreqSpec", "UncoreSpec",
        "MemorySpec", "InterconnectSpec", "NICSpec", "ContentionSpec",
        "HENRI", "BORA", "BILLY", "PYXIS", "get_preset", "available_presets",
    ),
    ".topology": ("Machine", "Cluster", "Core", "NUMANode", "Socket"),
    ".frequency": ("FrequencyModel", "CoreActivity"),
    ".counters": ("CycleCounters",),
    ".memory": ("Buffer", "allocate", "allocate_interleaved"),
    ".nic": ("RegistrationCache", "dma_demand", "dma_efficiency"),
})

__all__ = [
    "MachineSpec", "TurboTable", "CoreFreqSpec", "UncoreSpec", "MemorySpec",
    "InterconnectSpec", "NICSpec", "ContentionSpec",
    "HENRI", "BORA", "BILLY", "PYXIS", "get_preset", "available_presets",
    "Machine", "Cluster", "Core", "NUMANode", "Socket",
    "FrequencyModel", "CoreActivity", "CycleCounters",
    "Buffer", "allocate", "allocate_interleaved",
    "RegistrationCache", "dma_demand", "dma_efficiency",
]
