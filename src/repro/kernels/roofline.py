"""Roofline-based kernel execution on simulated cores.

A :class:`Kernel` is characterised by per-element flops and memory
traffic (the roofline reduction the paper itself applies in §4.5).  The
executor runs it in chunks:

* the compute part takes ``flops / (flops_per_cycle × f)`` seconds at the
  core's *live* frequency (so DVFS/turbo/AVX licensing feed straight into
  compute time, §3);
* the memory part is a fluid flow through the core's NUMA path with a
  demand of ``min(per_core_bw, what compute can consume)`` — under
  contention the achieved share shrinks and the chunk becomes
  memory-stalled (§4);
* compute and memory overlap: the chunk lasts ``max(compute, memory)``
  and the excess of memory time over compute time is recorded as memory
  stall in the cycle counters (the paper's Figure 10 metric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.hardware.frequency import CoreActivity
from repro.hardware.topology import Machine
from repro.obs.context import active_telemetry
from repro.sim import Event, noisy

__all__ = ["Kernel", "KernelStats", "KernelRun", "run_kernel",
           "arithmetic_intensity"]


@dataclass(frozen=True)
class Kernel:
    """Roofline description of a computation kernel.

    Parameters
    ----------
    name:
        Human-readable identifier.
    elems:
        Elements per full sweep over the working set.
    bytes_per_elem:
        DRAM traffic per element (0 for in-cache/CPU-bound kernels).
    flops_per_elem:
        Floating-point operations per element.
    cycles_per_elem:
        Extra non-FLOP cycles per element (integer work, e.g. the naive
        prime counter's divisions).
    vector:
        True for AVX-512 kernels: uses the machine's AVX flops/cycle and
        triggers the AVX frequency license.
    chunk_elems:
        Elements per simulation chunk (granularity/accuracy trade-off).
    """

    name: str
    elems: int
    bytes_per_elem: float = 0.0
    flops_per_elem: float = 0.0
    cycles_per_elem: float = 0.0
    vector: bool = False
    chunk_elems: int = 100_000

    def __post_init__(self):
        if self.elems <= 0 or self.chunk_elems <= 0:
            raise ValueError("elems and chunk_elems must be positive")
        if min(self.bytes_per_elem, self.flops_per_elem,
               self.cycles_per_elem) < 0:
            raise ValueError("per-element costs must be non-negative")
        if (self.bytes_per_elem == 0 and self.flops_per_elem == 0
                and self.cycles_per_elem == 0):
            raise ValueError("kernel does nothing")

    @property
    def streaming(self) -> bool:
        """Whether the kernel produces sustained DRAM traffic."""
        return self.bytes_per_elem > 0

    @property
    def intensity(self) -> float:
        """Arithmetic intensity in flop/byte (inf for CPU-only kernels)."""
        return arithmetic_intensity(self.flops_per_elem, self.bytes_per_elem)

    def compute_time_per_elem(self, machine: Machine, hz: float) -> float:
        """Seconds of pure compute per element at frequency *hz*."""
        fpc = (machine.spec.avx_flops_per_cycle if self.vector
               else machine.spec.flops_per_cycle)
        cycles = self.cycles_per_elem
        if self.flops_per_elem:
            cycles += self.flops_per_elem / fpc
        return cycles / hz


def arithmetic_intensity(flops: float, nbytes: float) -> float:
    """Roofline arithmetic intensity, flop/byte."""
    if nbytes <= 0:
        return math.inf
    return flops / nbytes


@dataclass
class KernelStats:
    """Accumulated results of one kernel run on one core."""

    core_id: int
    start: float = 0.0
    end: float = 0.0
    elems_done: int = 0
    sweeps_done: int = 0
    busy: float = 0.0
    mem_stall: float = 0.0
    bytes_moved: float = 0.0
    flops: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def memory_bandwidth(self) -> float:
        """Achieved DRAM bytes/s of this core (the STREAM metric)."""
        return self.bytes_moved / self.duration if self.duration > 0 else 0.0

    @property
    def flop_rate(self) -> float:
        return self.flops / self.duration if self.duration > 0 else 0.0

    @property
    def stall_fraction(self) -> float:
        return self.mem_stall / self.busy if self.busy > 0 else 0.0


@dataclass
class KernelRun:
    """Handle for a kernel launched with :func:`run_kernel`."""

    stats: KernelStats
    stop: Event = field(repr=False)
    process: object = field(default=None, repr=False)

    def request_stop(self) -> None:
        """Ask the kernel to stop after the current sweep chunk."""
        if not self.stop.triggered:
            self.stop.succeed()


def run_kernel(machine: Machine, core_id: int, kernel: Kernel,
               data_numa: int = 0, sweeps: Optional[int] = 1,
               noise: Optional[float] = None) -> KernelRun:
    """Launch *kernel* on *core_id*, streaming from *data_numa*.

    ``sweeps`` full passes over the working set are executed (``None`` =
    loop until :meth:`KernelRun.request_stop`).  Returns a
    :class:`KernelRun` whose ``process`` event fires with the
    :class:`KernelStats` when done.
    """
    if kernel.streaming and not (0 <= data_numa < len(machine.numa_nodes)):
        raise ValueError(f"no NUMA node {data_numa}")
    stats = KernelStats(core_id=core_id)
    run = KernelRun(stats=stats, stop=machine.sim.event())
    run.process = machine.sim.process(
        _kernel_body(machine, core_id, kernel, data_numa, sweeps, run,
                     noise))
    return run


def _kernel_body(machine: Machine, core_id: int, kernel: Kernel,
                 data_numa: int, sweeps: Optional[int], run: KernelRun,
                 noise: Optional[float]) -> Generator:
    sim = machine.sim
    stats = run.stats
    stats.start = sim.now
    rng = machine.rng.stream(f"kernel.{kernel.name}.{core_id}")
    rel_noise = machine.spec.noise if noise is None else noise

    activity = CoreActivity.AVX512 if kernel.vector else CoreActivity.SCALAR
    machine.set_core_activity(core_id, activity, uncore_active=True)
    per_core_bw = machine.spec.memory.per_core_bw
    tele = active_telemetry()
    span = None if tele is None else tele.begin_span(
        machine, core_id, kernel.name, "kernel",
        elems=kernel.elems, vector=kernel.vector)

    discarded = False
    try:
        sweep = 0
        while sweeps is None or sweep < sweeps:
            remaining = kernel.elems
            while remaining > 0:
                if run.stop.triggered:
                    return stats
                n = min(kernel.chunk_elems, remaining)
                hz = machine.freq.core_hz(core_id)
                cpu_time = noisy(
                    n * kernel.compute_time_per_elem(machine, hz),
                    rel_noise, rng)
                nbytes = n * kernel.bytes_per_elem
                chunk_start = sim.now
                if nbytes > 0:
                    demand = per_core_bw
                    if cpu_time > 0:
                        demand = min(per_core_bw, nbytes / cpu_time)
                    machine.set_streaming(
                        core_id, machine.streaming_weight(demand))
                    flow = machine.net.transfer(
                        machine.load_path(core_id, data_numa), size=nbytes,
                        demand=demand,
                        label=f"{kernel.name}@c{core_id}")
                    yield flow.done
                    mem_time = sim.now - chunk_start
                    if mem_time < cpu_time:
                        yield cpu_time - mem_time
                elif cpu_time > 0:
                    yield cpu_time
                chunk_time = sim.now - chunk_start
                mem_stall = max(0.0, chunk_time - cpu_time)
                stats.busy += chunk_time
                stats.mem_stall += mem_stall
                stats.bytes_moved += nbytes
                stats.flops += n * kernel.flops_per_elem
                stats.elems_done += n
                machine.counters.record(
                    core_id, busy=chunk_time, mem_stall=mem_stall,
                    flops=n * kernel.flops_per_elem, bytes_moved=nbytes)
                remaining -= n
            sweep += 1
            stats.sweeps_done = sweep
        return stats
    except GeneratorExit:
        # Closed because the simulation was discarded (GC of a dead
        # cluster): touching the machine or telemetry now would inject
        # state changes at a GC-dependent moment.
        discarded = True
        raise
    finally:
        if not discarded:
            stats.end = sim.now
            machine.set_core_activity(core_id, CoreActivity.IDLE)
            machine.set_streaming(core_id, False)
            if tele is not None:
                tele.finish_span(machine, span, sweeps=stats.sweeps_done,
                                 elems=stats.elems_done)
                tele.on_kernel_done(machine, core_id, kernel.name)
