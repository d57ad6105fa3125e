"""Declarative machine specifications and the paper's cluster presets.

Every dial of the simulator lives here.  The four presets correspond to
the clusters of §2.2 of the paper:

* ``henri`` — dual Intel Xeon Gold 6140 @2.3 GHz, 36 cores, 4 NUMA nodes
  (sub-NUMA clustering), InfiniBand ConnectX-4 EDR.  The reference
  machine for most figures.
* ``bora`` — dual Intel Xeon Gold 6240 @2.6 GHz, 36 cores, 2 NUMA nodes,
  Intel Omni-Path 100.  Omni-Path is *onloaded*: large-message transfers
  consume CPU and are noisier; contention shows up later (≈20 cores) but
  computation suffers when it shares the communication socket.
* ``billy`` — dual AMD EPYC 7502 (Zen2) @2.5 GHz, 64 cores, 8 NUMA nodes,
  InfiniBand ConnectX-6 HDR.  Higher memory bandwidth; the
  memory-/compute-bound boundary sits near 20 flop/B (§4.5).
* ``pyxis`` — dual Cavium ThunderX2 @2.5 GHz, 64 cores, 2 NUMA nodes,
  InfiniBand ConnectX-6 EDR.

The paper's numbers that these presets are calibrated to, with the
accepted interval around each, are the checks of the claims table in
:mod:`repro.core.record`.  One anchor has no check there: the no-load
latency with data near / far from the NIC, 1.39 / 1.67 µs on henri
(derived in ``docs/MODELING.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

__all__ = [
    "TurboTable", "CoreFreqSpec", "UncoreSpec", "MemorySpec",
    "InterconnectSpec", "NICSpec", "ContentionSpec", "MachineSpec",
    "HENRI", "BORA", "BILLY", "PYXIS", "get_preset", "available_presets",
]

GHZ = 1e9
GB = 1e9
MB = 1e6
KB = 1e3
US = 1e-6


@dataclass(frozen=True)
class TurboTable:
    """Frequency (Hz) as a function of the number of active cores.

    ``bins`` is a tuple of ``(max_active_cores, frequency_hz)`` sorted by
    the first element; the frequency of the first bin whose bound covers
    the active-core count applies.  Counts beyond the last bin use the
    last bin's frequency.
    """

    bins: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        if not self.bins:
            raise ValueError("turbo table needs at least one bin")
        bounds = [b for b, _ in self.bins]
        if bounds != sorted(bounds):
            raise ValueError("turbo bins must be sorted by active-core bound")

    def frequency(self, active_cores: int) -> float:
        """Frequency when *active_cores* cores are active on the socket."""
        if active_cores <= 0:
            return self.bins[0][1]
        for bound, freq in self.bins:
            if active_cores <= bound:
                return freq
        return self.bins[-1][1]

    @property
    def max_frequency(self) -> float:
        return max(freq for _, freq in self.bins)

    @property
    def min_frequency(self) -> float:
        return min(freq for _, freq in self.bins)


@dataclass(frozen=True)
class CoreFreqSpec:
    """Per-core frequency behaviour."""

    min_hz: float                 # idle / powersave frequency
    base_hz: float                # guaranteed all-core frequency
    turbo: TurboTable             # non-AVX turbo bins (per socket)
    avx512: TurboTable            # AVX-512 license bins (per socket)
    allowed_range: Tuple[float, float] = (0.0, math.inf)  # userspace range

    def __post_init__(self):
        if not (0 < self.min_hz <= self.base_hz):
            raise ValueError("need 0 < min_hz <= base_hz")


@dataclass(frozen=True)
class UncoreSpec:
    """Uncore (LLC + memory controller) frequency behaviour."""

    min_hz: float
    max_hz: float
    # Number of memory-active cores on a socket that drives the dynamic
    # uncore frequency to its maximum.
    ramp_cores: int = 4

    def __post_init__(self):
        if not (0 < self.min_hz <= self.max_hz):
            raise ValueError("need 0 < min_hz <= max_hz")


@dataclass(frozen=True)
class MemorySpec:
    """Memory system calibration."""

    controller_bw: float          # bytes/s per NUMA-node memory controller
    per_core_bw: float            # max bytes/s a single core can stream
    numa_capacity: float = 64e9   # bytes of DRAM per NUMA node
    # Fraction of controller capacity retained at minimum uncore frequency.
    uncore_floor: float = 0.85


@dataclass(frozen=True)
class InterconnectSpec:
    """Inter-NUMA / inter-socket fabric."""

    socket_link_bw: float         # bytes/s per inter-socket (UPI/xGMI) link
    intra_socket_bw: float        # bytes/s between NUMA nodes of a socket
    hop_latency: float            # seconds added per inter-socket hop (PIO)
    intra_hop_latency: float = 20e-9


@dataclass(frozen=True)
class NICSpec:
    """NIC and network-wire calibration."""

    wire_bw: float                 # bytes/s on the wire (asymptotic goodput)
    pcie_bw: float                 # bytes/s of the NIC's PCIe attachment
    wire_latency: float            # seconds of pure hardware latency
    o_send_cycles: float           # software send overhead (CPU cycles)
    o_recv_cycles: float           # software receive overhead (CPU cycles)
    pio_uncore_cycles: float       # PIO/doorbell cycles paid at uncore freq
    eager_threshold: int           # bytes; above this, rendezvous protocol
    rndv_rtt_factor: float = 1.0   # handshake costs this many extra latencies
    # DMA arbitration on the memory system:
    dma_usage: float = 1.3         # bus bytes consumed per payload byte
    dma_weight: float = 2.5        # max-min fairness weight of DMA flows
    # Latency-sensitivity of the DMA engines: efficiency drops as the
    # memory controllers on the path fill up *before* the fair-share limit
    # binds (limited outstanding requests × higher memory latency).
    dma_eff_gamma: float = 0.12
    dma_eff_power: float = 3.0
    # Uncore frequency sensitivity of DMA efficiency (bandwidth anchor:
    # 10.5 -> 10.1 GB/s between max and min uncore on henri).
    dma_uncore_sensitivity: float = 0.04
    # Eager-path copy bandwidth (pipelined PIO/copy) and its congestion
    # sensitivity.
    eager_copy_bw: float = 3.0e9
    registration_cost: float = 40e-6   # first-touch memory registration
    onload_copy: bool = False      # Omni-Path style: large msgs consume CPU


@dataclass(frozen=True)
class ContentionSpec:
    """Latency-penalty model for small-message (PIO) traffic.

    PIO doorbells/copies are *posted* writes: they are largely insensitive
    to raw DRAM bandwidth consumed elsewhere, but they do queue behind the
    ring/uncore transactions of memory-streaming cores sharing the
    communication thread's socket.  The penalty is therefore driven by the
    fraction of the comm socket's cores that are streaming memory, and it
    is amplified when the PIO crosses an inter-socket link:

    ``penalty = (mc_coef + hops * link_coef) * colocated_frac ** power``

    This reproduces Table 1 of the paper: near-NIC comm threads degrade
    slightly and early (computing threads land on their socket first, the
    plateau is ``mc_coef``); far comm threads degrade late (computing
    threads only reach their socket past half the machine) but strongly
    (``mc_coef + link_coef`` roughly doubles the latency).
    """

    mc_coef: float = 0.25e-6
    link_coef: float = 0.65e-6
    power: float = 2.0

    def pio_penalty(self, colocated_frac: float, hops: int) -> float:
        """Penalty in seconds for one PIO crossing.

        Parameters
        ----------
        colocated_frac:
            Fraction (0..1) of the comm socket's other cores that are
            streaming memory.
        hops:
            Inter-socket hops crossed by the PIO (0 when the comm thread
            sits on the NIC's socket).
        """
        frac = min(max(colocated_frac, 0.0), 1.0)
        return (self.mc_coef + hops * self.link_coef) * frac ** self.power


@dataclass(frozen=True)
class MachineSpec:
    """Complete description of one cluster's compute node."""

    name: str
    sockets: int
    numa_per_socket: int
    cores_per_numa: int
    freq: CoreFreqSpec
    uncore: UncoreSpec
    memory: MemorySpec
    interconnect: InterconnectSpec
    nic: NICSpec
    nic_numa: int = 0              # NUMA node the NIC is attached to
    contention: ContentionSpec = field(default_factory=ContentionSpec)
    # Arithmetic throughput of one core for scalar/compiled loops,
    # flops per cycle (used by the roofline kernel model).
    flops_per_cycle: float = 4.0
    avx_flops_per_cycle: float = 32.0
    # Measurement noise (relative sigma) applied to observed durations.
    noise: float = 0.015

    def __post_init__(self):
        if self.sockets < 1 or self.numa_per_socket < 1 or self.cores_per_numa < 1:
            raise ValueError("machine must have >=1 socket/NUMA/core")
        if not (0 <= self.nic_numa < self.sockets * self.numa_per_socket):
            raise ValueError("nic_numa out of range")

    @property
    def n_numa(self) -> int:
        return self.sockets * self.numa_per_socket

    @property
    def n_cores(self) -> int:
        return self.n_numa * self.cores_per_numa

    def with_overrides(self, **kwargs) -> "MachineSpec":
        """Return a copy with some fields replaced (calibration helper)."""
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Cluster presets
# ---------------------------------------------------------------------------

HENRI = MachineSpec(
    name="henri",
    sockets=2,
    numa_per_socket=2,        # sub-NUMA clustering: 4 NUMA nodes total
    cores_per_numa=9,         # 36 cores
    freq=CoreFreqSpec(
        min_hz=1.0 * GHZ,
        base_hz=2.3 * GHZ,
        turbo=TurboTable((
            (2, 3.7 * GHZ), (4, 3.4 * GHZ), (8, 3.0 * GHZ),
            (12, 2.8 * GHZ), (16, 2.6 * GHZ), (36, 2.5 * GHZ),
        )),
        avx512=TurboTable((
            (4, 3.0 * GHZ), (8, 2.7 * GHZ), (12, 2.5 * GHZ),
            (36, 2.3 * GHZ),
        )),
        allowed_range=(1.0 * GHZ, 2.3 * GHZ),
    ),
    uncore=UncoreSpec(min_hz=1.2 * GHZ, max_hz=2.4 * GHZ, ramp_cores=4),
    memory=MemorySpec(
        controller_bw=52.0 * GB,   # one SNC controller, STREAM-achievable
        per_core_bw=13.0 * GB,
        numa_capacity=24e9,
    ),
    interconnect=InterconnectSpec(
        socket_link_bw=19.0 * GB,
        intra_socket_bw=60.0 * GB,
        hop_latency=0.13 * US,
        intra_hop_latency=0.02 * US,
    ),
    nic=NICSpec(
        wire_bw=10.6 * GB,         # EDR 100 Gb/s, protocol-limited
        pcie_bw=13.0 * GB,         # PCIe gen3 x16
        wire_latency=0.36 * US,
        o_send_cycles=1250.0,
        o_recv_cycles=1150.0,
        pio_uncore_cycles=240.0,
        eager_threshold=32 * 1024,
        dma_usage=1.3,
        dma_weight=2.5,
        dma_eff_gamma=0.18,
        dma_eff_power=2.2,
        eager_copy_bw=3.0 * GB,
    ),
    nic_numa=0,
    flops_per_cycle=4.0,
    avx_flops_per_cycle=32.0,
)

BORA = MachineSpec(
    name="bora",
    sockets=2,
    numa_per_socket=1,
    cores_per_numa=18,        # 36 cores, 2 NUMA nodes
    freq=CoreFreqSpec(
        min_hz=1.0 * GHZ,
        base_hz=2.6 * GHZ,
        turbo=TurboTable((
            (2, 3.9 * GHZ), (4, 3.6 * GHZ), (8, 3.3 * GHZ),
            (12, 3.1 * GHZ), (18, 2.9 * GHZ), (36, 2.8 * GHZ),
        )),
        avx512=TurboTable((
            (4, 3.2 * GHZ), (8, 2.9 * GHZ), (12, 2.7 * GHZ),
            (36, 2.6 * GHZ),
        )),
        allowed_range=(1.0 * GHZ, 2.6 * GHZ),
    ),
    uncore=UncoreSpec(min_hz=1.2 * GHZ, max_hz=2.4 * GHZ, ramp_cores=6),
    memory=MemorySpec(
        controller_bw=105.0 * GB,  # full socket, 6 ch DDR4-2933
        per_core_bw=13.5 * GB,
        numa_capacity=96e9,
    ),
    interconnect=InterconnectSpec(
        socket_link_bw=20.8 * GB,
        intra_socket_bw=80.0 * GB,
        hop_latency=0.13 * US,
    ),
    nic=NICSpec(
        wire_bw=10.8 * GB,         # Omni-Path 100
        pcie_bw=13.0 * GB,
        wire_latency=0.50 * US,
        o_send_cycles=1400.0,
        o_recv_cycles=1300.0,
        pio_uncore_cycles=240.0,
        eager_threshold=8 * 1024,
        dma_usage=1.5,             # onload protocol: heavier bus usage
        dma_weight=2.0,
        dma_eff_gamma=0.10,
        dma_eff_power=3.0,
        eager_copy_bw=2.5 * GB,
        onload_copy=True,
    ),
    nic_numa=0,
    flops_per_cycle=4.0,
    avx_flops_per_cycle=32.0,
    noise=0.05,                    # paper: wide deviation on Omni-Path
)

BILLY = MachineSpec(
    name="billy",
    sockets=2,
    numa_per_socket=4,
    cores_per_numa=8,          # 64 cores, 8 NUMA nodes
    freq=CoreFreqSpec(
        min_hz=1.5 * GHZ,
        base_hz=2.5 * GHZ,
        turbo=TurboTable((
            (4, 3.35 * GHZ), (8, 3.2 * GHZ), (16, 3.0 * GHZ),
            (32, 2.8 * GHZ), (64, 2.6 * GHZ),
        )),
        # Zen2 has no AVX-512; AVX2 barely affects frequency.
        avx512=TurboTable((
            (8, 3.1 * GHZ), (32, 2.8 * GHZ), (64, 2.6 * GHZ),
        )),
        allowed_range=(1.5 * GHZ, 2.5 * GHZ),
    ),
    uncore=UncoreSpec(min_hz=1.33 * GHZ, max_hz=1.6 * GHZ, ramp_cores=4),
    memory=MemorySpec(
        controller_bw=38.0 * GB,   # one of 8 NUMA quadrant controllers
        per_core_bw=20.0 * GB,
        numa_capacity=16e9,
    ),
    interconnect=InterconnectSpec(
        socket_link_bw=35.0 * GB,  # xGMI2
        intra_socket_bw=70.0 * GB,
        hop_latency=0.11 * US,
    ),
    nic=NICSpec(
        wire_bw=23.0 * GB,         # HDR 200 Gb/s
        pcie_bw=26.0 * GB,         # PCIe gen4 x16
        wire_latency=0.35 * US,
        o_send_cycles=1150.0,
        o_recv_cycles=1050.0,
        pio_uncore_cycles=220.0,
        eager_threshold=32 * 1024,
        dma_usage=1.3,
        dma_weight=2.5,
        dma_eff_gamma=0.10,
        dma_eff_power=3.0,
        eager_copy_bw=3.5 * GB,
    ),
    nic_numa=0,
    flops_per_cycle=4.0,
    avx_flops_per_cycle=16.0,
)

PYXIS = MachineSpec(
    name="pyxis",
    sockets=2,
    numa_per_socket=1,
    cores_per_numa=32,         # 64 cores, 2 NUMA nodes
    freq=CoreFreqSpec(
        min_hz=1.0 * GHZ,
        base_hz=2.5 * GHZ,
        turbo=TurboTable((
            (32, 2.5 * GHZ), (64, 2.5 * GHZ),  # ThunderX2: flat frequency
        )),
        avx512=TurboTable((
            (64, 2.5 * GHZ),
        )),
        allowed_range=(1.0 * GHZ, 2.5 * GHZ),
    ),
    uncore=UncoreSpec(min_hz=1.6 * GHZ, max_hz=1.6 * GHZ, ramp_cores=4),
    memory=MemorySpec(
        controller_bw=110.0 * GB,  # 8 ch DDR4 per socket
        per_core_bw=10.0 * GB,
        numa_capacity=128e9,
    ),
    interconnect=InterconnectSpec(
        socket_link_bw=30.0 * GB,
        intra_socket_bw=90.0 * GB,
        hop_latency=0.15 * US,
    ),
    nic=NICSpec(
        wire_bw=11.0 * GB,         # ConnectX-6 EDR
        pcie_bw=13.0 * GB,
        wire_latency=0.70 * US,
        o_send_cycles=1900.0,      # ARM cores: more cycles per op
        o_recv_cycles=1800.0,
        pio_uncore_cycles=350.0,
        eager_threshold=32 * 1024,
        dma_usage=1.3,
        dma_weight=2.5,
        dma_eff_gamma=0.10,
        dma_eff_power=3.0,
        eager_copy_bw=2.2 * GB,
    ),
    nic_numa=0,
    flops_per_cycle=4.0,
    avx_flops_per_cycle=8.0,
)

_PRESETS: Dict[str, MachineSpec] = {
    "henri": HENRI,
    "bora": BORA,
    "billy": BILLY,
    "pyxis": PYXIS,
}


def get_preset(name: str) -> MachineSpec:
    """Look up a cluster preset by name (case-insensitive)."""
    try:
        return _PRESETS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}") from None


def available_presets() -> Tuple[str, ...]:
    return tuple(sorted(_PRESETS))
