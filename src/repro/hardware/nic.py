"""NIC behaviour: DMA efficiency, registration cache.

Two NIC properties matter for the paper's results:

* **DMA engines are latency-sensitive.**  A NIC keeps a bounded number of
  outstanding PCIe/memory reads; when compute cores load the memory
  controllers, each read takes longer and achieved DMA bandwidth drops
  *before* the fair-share limit binds.  This is why Figure 4b shows the
  network bandwidth dipping from only 3 computing cores, while max-min
  arithmetic alone would protect the (demand-limited) NIC until much
  higher core counts.  :func:`dma_efficiency` models this as a demand
  de-rating from the utilisation the *other* traffic imposes on the DMA
  path.
* **Memory registration is expensive but cached.**  The paper recycles
  ping-pong buffers to hit the registration cache (§2.1); the rendezvous
  path pays :attr:`~repro.hardware.presets.NICSpec.registration_cost`
  only on a cache miss.
"""

from __future__ import annotations

from typing import Set

from repro.hardware.memory import Buffer
from repro.hardware.topology import Machine

__all__ = ["RegistrationCache", "dma_efficiency", "dma_demand"]


class RegistrationCache:
    """Pin-down cache of registered buffers (Tezuka et al. [20])."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "dict[int, None]" = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, buffer: Buffer) -> bool:
        """True (hit) if *buffer* is registered; registers it otherwise
        (returning False), evicting LRU entries beyond capacity."""
        if buffer.id in self._entries:
            self._entries.pop(buffer.id)
            self._entries[buffer.id] = None  # refresh LRU position
            self.hits += 1
            return True
        self.misses += 1
        self._entries[buffer.id] = None
        while len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        return False

    def invalidate(self, buffer: Buffer) -> None:
        self._entries.pop(buffer.id, None)

    def __len__(self) -> int:
        return len(self._entries)


def _path_pressure(machine: Machine, data_numa: int) -> float:
    """Utilisation (0..1) that other traffic imposes on the DMA path's
    memory-side resources (controller + inter-socket link if crossed)."""
    pressure = 0.0
    for res in machine.dma_path(data_numa):
        if res is machine.pcie:
            continue  # the NIC does not compete with itself on PCIe
        pressure = max(pressure, min(1.0, machine.net.utilization(res)))
    return pressure


def dma_efficiency(machine: Machine, data_numa: int) -> float:
    """Fraction of wire bandwidth the DMA engines can sustain right now.

    Combines the congestion de-rating with the uncore-frequency
    sensitivity (bandwidth anchor: 10.5 vs 10.1 GB/s between uncore
    extremes on henri, §3.1).
    """
    spec = machine.spec.nic
    rho = _path_pressure(machine, data_numa)
    congestion = 1.0 - spec.dma_eff_gamma * rho ** spec.dma_eff_power

    uspec = machine.spec.uncore
    fu = machine.freq.uncore_hz(machine.nic_numa.socket_id)
    if uspec.max_hz > 0:
        frac = fu / uspec.max_hz
    else:  # pragma: no cover - specs forbid this
        frac = 1.0
    uncore = 1.0 - spec.dma_uncore_sensitivity * (1.0 - frac)
    return max(0.05, congestion * uncore)


def dma_demand(machine: Machine, data_numa: int) -> float:
    """Current achievable DMA payload rate (bytes/s) for a rendezvous
    transfer whose local data lives on *data_numa*."""
    return machine.spec.nic.wire_bw * dma_efficiency(machine, data_numa)
