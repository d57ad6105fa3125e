"""Discrete-event simulation substrate.

This subpackage is the foundation every other part of :mod:`repro` builds
on.  It provides:

* :mod:`repro.sim.engine` — a small deterministic discrete-event simulator
  with generator-based processes (in the style of SimPy, self-contained).
* :mod:`repro.sim.events` — event primitives (:class:`Event`,
  :class:`Timeout`, :class:`AllOf`, :class:`AnyOf`).
* :mod:`repro.sim.fluid` — a fluid-flow bandwidth-sharing model with
  weighted max-min fairness (progressive filling), demand caps and
  per-resource usage multipliers.  Memory controllers, inter-NUMA links,
  PCIe lanes and network wires are all instances of
  :class:`~repro.sim.fluid.Resource`, and every ongoing transfer (a core
  streaming an array, a NIC DMA) is a :class:`~repro.sim.fluid.Flow`.
* :mod:`repro.sim.randomness` — named deterministic RNG streams and the
  measurement-noise model used to emulate run-to-run variability.
* :mod:`repro.sim.trace` — time-series recording (used for the frequency
  traces of Figures 2 and 3 of the paper).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("Simulator", "Process", "SimulationError"),
    ".events": ("Event", "Timeout", "AllOf", "AnyOf", "Interrupt"),
    ".fluid": ("Resource", "Flow", "FluidNetwork"),
    ".randomness": ("RandomStreams", "noisy"),
    ".trace": ("Trace", "PeriodicSampler"),
})

__all__ = [
    "Simulator",
    "Process",
    "SimulationError",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Resource",
    "Flow",
    "FluidNetwork",
    "RandomStreams",
    "noisy",
    "Trace",
    "PeriodicSampler",
]
