"""Deterministic fault injection for the simulated cluster.

The paper measures interference on *healthy* hardware; production
clusters also see flaky links and dead nodes.  This package lets every
experiment run under a seeded, reproducible :class:`FaultPlan`:

* **degraded links** — bandwidth/latency multipliers applied to the
  fluid wire resources;
* **transient message loss** — consumed by the reliable transport in
  :mod:`repro.netmodel.protocols`;
* **fail-stop node crashes** — transfers to/from the node raise
  :class:`TransportError` and the node's runtime workers stop.

All faults are ordinary simulation events with start/duration windows,
and every random decision (the loss draws) comes from
:class:`~repro.sim.randomness.RandomStreams` seeded by the plan's
seed — two runs with the same ``--fault-seed`` are bit-identical.

Usage::

    plan = FaultPlan(seed=7).fail_stop(node=1, at=0.05)
    with fault_context(plan):
        result = fig4a(core_counts=[0, 5], reps=4)
    result.failures            # structured per-point fault annotations
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".context": (
        "InstalledFaults", "active_faults", "active_point_scope",
        "clear_faults", "derive_point_seed", "fault_context",
        "install_faults", "point_scope",
    ),
    ".injector": ("FaultInjector",),
    ".plan": (
        "DegradedLink", "FailStop", "FaultPlan", "MessageLoss", "parse_fault",
    ),
    ".chaos": ("maybe_chaos",),
    ".reliability": ("ReliabilityConfig", "TransportError", "backoff_delay"),
})

__all__ = [
    "FaultPlan", "DegradedLink", "MessageLoss", "FailStop", "parse_fault",
    "ReliabilityConfig", "TransportError", "backoff_delay", "maybe_chaos",
    "FaultInjector",
    "InstalledFaults", "install_faults", "clear_faults", "active_faults",
    "fault_context",
    "derive_point_seed", "point_scope", "active_point_scope",
]
