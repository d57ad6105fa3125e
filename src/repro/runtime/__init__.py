"""Task-based runtime system (StarPU-like), §5 and §6 of the paper.

* :mod:`repro.runtime.task` — tasks, data handles, access modes, and
  sequential-consistency dependency inference.
* :mod:`repro.runtime.scheduler` — the central eager queue (StarPU's
  default and the runtime's only scheduler) whose shared list + lock are
  what polling workers hammer (§5.4).
* :mod:`repro.runtime.worker` — workers bound to cores, executing tasks
  through the roofline model, busy-waiting with exponential backoff.
* :mod:`repro.runtime.runtime` — the runtime façade: core reservation
  (one core for the comm thread, one for the main thread, workers on the
  rest, §5.1), task submission and graph execution.
* :mod:`repro.runtime.mpi_layer` — the distributed layer: a dedicated
  communication thread with a request list, adding the §5.2 software
  overhead to every message.
* :mod:`repro.runtime.apps` — distributed CG and GEMM task graphs (§6).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".task": ("AccessMode", "DataHandle", "Task", "TaskGraph"),
    ".scheduler": ("EagerScheduler", "PollingSpec"),
    ".worker": ("Worker",),
    ".runtime": ("RuntimeSystem", "RuntimeSpec", "runtime_spec_for"),
    ".mpi_layer": ("RuntimeComm", "SendStats"),
})

__all__ = [
    "AccessMode", "DataHandle", "Task", "TaskGraph",
    "EagerScheduler", "PollingSpec", "Worker",
    "RuntimeSystem", "RuntimeSpec", "runtime_spec_for",
    "RuntimeComm", "SendStats",
]
