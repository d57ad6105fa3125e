"""The paper's contribution: the interference benchmark suite.

* :mod:`repro.core.results` — series/result containers with the paper's
  median + decile-band statistics.
* :mod:`repro.core.placement` — near/far-NIC placements for the
  communication thread, the data, and the computing threads (§4.3).
* :mod:`repro.core.sidebyside` — the §2.1 three-step protocol:
  computation alone, communication alone, both side by side, with both
  throughput-style (STREAM) and fixed-work (prime/AVX) computations.
* :mod:`repro.core.experiments` — one entry point per paper figure and
  table (``fig1a`` … ``fig10``), each returning an
  :class:`~repro.core.results.ExperimentResult`.
* :mod:`repro.core.report` — ASCII rendering and EXPERIMENTS.md
  generation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".results": ("Series", "ExperimentResult"),
    ".placement": (
        "Placement", "compute_core_ids", "comm_core_for", "data_numa_for",
    ),
    ".sidebyside": (
        "SideBySideConfig", "ThroughputOutcome", "DurationOutcome",
        "run_throughput_protocol", "run_duration_protocol",
    ),
    ".report": ("render_table", "render_experiment", "write_experiments_md"),
})

__all__ = [
    "Series", "ExperimentResult",
    "Placement", "compute_core_ids", "comm_core_for", "data_numa_for",
    "SideBySideConfig", "ThroughputOutcome", "DurationOutcome",
    "run_throughput_protocol", "run_duration_protocol",
    "experiments",
    "render_table", "render_experiment", "write_experiments_md",
]
