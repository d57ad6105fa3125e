"""GPU devices and host-device data movement (§8 future work).

The paper closes with: *"Future work also includes considering the
impact of data movements between main memory and GPUs."*  This module
adds the needed substrate:

* :class:`GPUSpec` / :class:`GPU` — a device with its own HBM (a fluid
  resource), its own PCIe attachment, and a host-side NUMA affinity;
* :func:`GPU.memcpy` — ``cudaMemcpy``-style transfers whose host side
  crosses the same memory controllers and inter-socket links as
  everything else — so H2D/D2H traffic interferes with both STREAM
  *and* the NIC exactly the way the paper asks about;
* :func:`run_gpu_kernel` — roofline execution on the device (compute at
  the GPU's flop rate, memory against HBM).

The accompanying experiments live in :mod:`repro.core.gpu_experiments`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.kernels.blas import TileCost
from repro.sim import Resource
from repro.sim.fluid import Flow

__all__ = ["GPUSpec", "GPU", "attach_gpu", "run_gpu_kernel",
           "GPUKernelStats", "V100", "MI50"]

_gpu_ids = itertools.count()


@dataclass(frozen=True)
class GPUSpec:
    """Device characteristics."""

    name: str
    hbm_bw: float = 800e9          # bytes/s device memory
    pcie_bw: float = 13e9          # bytes/s host link (gen3 x16)
    fp64_flops: float = 7e12       # peak double-precision rate
    attached_numa: int = 0         # host NUMA node of the PCIe slot
    kernel_launch_s: float = 8e-6  # driver launch overhead
    memcpy_setup_s: float = 9e-6   # per-cudaMemcpy overhead
    # Host-side DMA bus-usage multiplier (like the NIC's dma_usage).
    host_usage: float = 1.3


V100 = GPUSpec(name="v100", hbm_bw=830e9, pcie_bw=13e9,
               fp64_flops=7e12)
MI50 = GPUSpec(name="mi50", hbm_bw=960e9, pcie_bw=13e9,
               fp64_flops=6.6e12)


class GPU:
    """One device attached to a machine."""

    def __init__(self, machine, spec: GPUSpec):
        if not (0 <= spec.attached_numa < len(machine.numa_nodes)):
            raise ValueError(f"no NUMA node {spec.attached_numa}")
        self.machine = machine
        self.spec = spec
        self.id = next(_gpu_ids)
        self.hbm = Resource(
            f"n{machine.node_id}.gpu{self.id}.hbm", spec.hbm_bw)
        self.pcie = Resource(
            f"n{machine.node_id}.gpu{self.id}.pcie", spec.pcie_bw)
        self.numa = machine.numa_nodes[spec.attached_numa]

    # -- paths ----------------------------------------------------------
    def host_path(self, host_numa: int) -> List[Resource]:
        """Host-side resources a transfer crosses (mc + fabric + PCIe)."""
        machine = self.machine
        data = machine.numa_nodes[host_numa]
        path: List[Resource] = [data.controller]
        if data.socket_id != self.numa.socket_id:
            path.append(machine.socket_link(data.socket_id,
                                            self.numa.socket_id))
        elif data.id != self.numa.id:
            path.append(machine.sockets[self.numa.socket_id].mesh)
        path.append(self.pcie)
        return path

    # -- transfers ----------------------------------------------------------
    def memcpy(self, nbytes: float, host_numa: Optional[int] = None,
               direction: str = "h2d", label: str = "") -> Flow:
        """Start a host<->device copy; returns the fluid flow.

        The flow crosses the host memory controller (with the DMA usage
        multiplier), the inter-socket fabric if the data is remote to
        the PCIe slot, the device link, and HBM.
        """
        if direction not in ("h2d", "d2h"):
            raise ValueError("direction must be 'h2d' or 'd2h'")
        if nbytes <= 0:
            raise ValueError("nbytes must be > 0")
        if host_numa is None:
            host_numa = self.numa.id
        path = self.host_path(host_numa) + [self.hbm]
        mc = self.machine.numa_nodes[host_numa].controller
        return self.machine.net.transfer(
            path, size=nbytes,
            demand=self.spec.pcie_bw,
            usage={mc: self.spec.host_usage},
            label=label or f"{direction}:gpu{self.id}")

    def memcpy_process(self, nbytes: float,
                       host_numa: Optional[int] = None,
                       direction: str = "h2d") -> Generator:
        """Process: one full cudaMemcpy (setup + transfer); returns the
        achieved bandwidth."""
        sim = self.machine.sim
        start = sim.now
        yield self.spec.memcpy_setup_s
        flow = self.memcpy(nbytes, host_numa=host_numa,
                           direction=direction)
        yield flow.done
        duration = sim.now - start
        return nbytes / duration if duration > 0 else 0.0


def attach_gpu(machine, spec: GPUSpec = V100) -> GPU:
    """Attach a GPU to *machine* (kept outside MachineSpec so the four
    paper presets stay exactly as measured)."""
    gpu = GPU(machine, spec)
    if not hasattr(machine, "gpus"):
        machine.gpus = []
    machine.gpus.append(gpu)
    return gpu


@dataclass
class GPUKernelStats:
    """Result of one device-kernel execution."""

    duration: float
    flops: float
    bytes_moved: float


def run_gpu_kernel(gpu: GPU, cost: TileCost,
                   sweeps: int = 1) -> "object":
    """Launch a roofline kernel on the device; returns the process
    (its value is a :class:`GPUKernelStats`)."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")

    def body() -> Generator:
        sim = gpu.machine.sim
        start = sim.now
        for _ in range(sweeps):
            yield gpu.spec.kernel_launch_s
            cpu_time = cost.flops / gpu.spec.fp64_flops
            t0 = sim.now
            if cost.bytes > 0:
                flow = gpu.machine.net.transfer(
                    [gpu.hbm], size=cost.bytes,
                    demand=gpu.spec.hbm_bw,
                    label=f"gpukernel:{cost.name}")
                yield flow.done
                mem_time = sim.now - t0
                if mem_time < cpu_time:
                    yield cpu_time - mem_time
            elif cpu_time > 0:
                yield cpu_time
        return GPUKernelStats(duration=sim.now - start,
                              flops=cost.flops * sweeps,
                              bytes_moved=cost.bytes * sweeps)

    return gpu.machine.sim.process(body())
