"""Deterministic fault injection for the simulated cluster.

The paper measures interference on *healthy* hardware; production
clusters are dominated by fail-slow NICs, flaky links and stragglers.
This package lets every experiment run under a seeded, reproducible
:class:`FaultPlan`:

* **fail-slow cores** — frequency capped mid-run;
* **degraded links** — bandwidth/latency multipliers applied to the
  fluid wire resources;
* **transient message loss / corruption** — consumed by the reliable
  transport in :mod:`repro.netmodel.protocols`;
* **registration-cache flushes** — NIC pin-down cache invalidation;
* **fail-stop node crashes** — transfers to/from the node raise
  :class:`TransportError`, the node's runtime workers stop and their
  in-flight tasks are requeued.

All faults are ordinary simulation events with start/duration windows,
and every random decision (loss draws, random plan generation) comes
from :class:`~repro.sim.randomness.RandomStreams` seeded by the plan's
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
        "CrashWorker", "DegradedLink", "FailSlowCore", "FailStop", "FaultPlan",
        "MessageLoss", "RegCacheFlush", "parse_fault",
    ),
    ".chaos": ("maybe_chaos",),
    ".reliability": ("ReliabilityConfig", "TransportError", "backoff_delay"),
})

__all__ = [
    "FaultPlan", "FailSlowCore", "DegradedLink", "MessageLoss",
    "RegCacheFlush", "FailStop", "CrashWorker", "parse_fault",
    "ReliabilityConfig", "TransportError", "backoff_delay", "maybe_chaos",
    "FaultInjector",
    "InstalledFaults", "install_faults", "clear_faults", "active_faults",
    "fault_context",
    "derive_point_seed", "point_scope", "active_point_scope",
]
