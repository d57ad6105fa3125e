"""Central eager scheduler and the worker-polling contention model.

StarPU's default ``eager`` scheduler keeps submitted tasks in one shared
list; idle workers busy-wait on it with an exponential backoff of ``nop``
instructions (§5.4 of the paper).  The shared list and its lock are the
contention point: the more often workers poll, the longer every *other*
lock acquisition (task push, communication-request handling) takes.

The polling itself is modelled analytically in steady state rather than
event-by-event (a backoff of 2 nops would mean ~10⁸ simulation events per
second of simulated time):

* each idle worker holds the lock for ``lock_hold`` seconds out of every
  ``lock_hold + nops/f`` seconds → a per-worker duty cycle;
* the expected extra wait suffered by one lock acquisition is
  ``lock_hold × Σ duty`` (capped at a queue of all workers), i.e. the
  probability-weighted time spent behind polling holders.

``Paused`` workers (the paper's fourth configuration) have duty 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.runtime.task import Task

__all__ = ["PollingSpec", "EagerScheduler"]


@dataclass(frozen=True)
class PollingSpec:
    """Worker busy-wait behaviour (§5.4)."""

    backoff_max_nops: int = 32       # StarPU's default maximum backoff
    paused: bool = False             # workers paused: no polling at all
    nop_seconds: float = 0.4e-9      # one nop at ~2.5 GHz
    lock_hold: float = 20e-9         # time the list lock is held per poll
    locks_per_message: int = 10      # lock acquisitions per runtime message

    def __post_init__(self):
        if self.backoff_max_nops < 1:
            raise ValueError("backoff must be >= 1 nop")

    @property
    def poll_period(self) -> float:
        """Steady-state seconds between two polls of one idle worker."""
        return self.lock_hold + self.backoff_max_nops * self.nop_seconds

    def worker_duty(self) -> float:
        """Fraction of time one idle polling worker holds the lock."""
        if self.paused:
            return 0.0
        return self.lock_hold / self.poll_period


@dataclass
class SchedulerStats:
    pushed: int = 0
    popped: int = 0
    max_queue: int = 0


class EagerScheduler:
    """Shared ready-task list with lock-contention accounting.

    ``pop`` optionally prefers tasks whose dominant data lives on the
    requesting worker's socket (dmda-style data-aware scheduling); pass
    ``locality=False`` for the plain locality-blind eager list.
    """

    # How many tasks from the head of the list a locality-aware pop scans.
    LOCALITY_WINDOW = 16

    def __init__(self, polling: Optional[PollingSpec] = None,
                 machine=None, locality: bool = True):
        self.polling = polling if polling is not None else PollingSpec()
        self.machine = machine
        self.locality = locality and machine is not None
        self._ready: Deque[Task] = deque()
        self.stats = SchedulerStats()
        self._idle_pollers = 0

    # -- queue ------------------------------------------------------------
    def push(self, task: Task) -> None:
        self._ready.append(task)
        self.stats.pushed += 1
        self.stats.max_queue = max(self.stats.max_queue, len(self._ready))

    def pop(self, worker_socket: Optional[int] = None) -> Optional[Task]:
        if not self._ready:
            return None
        self.stats.popped += 1
        if self.locality and worker_socket is not None:
            window = min(self.LOCALITY_WINDOW, len(self._ready))
            for idx in range(window):
                task = self._ready[idx]
                numa = task.data_numa()
                if numa is not None and \
                        self.machine.socket_of_numa(numa) == worker_socket:
                    del self._ready[idx]
                    return task
        return self._ready.popleft()

    def __len__(self) -> int:
        return len(self._ready)

    # -- polling-contention model ----------------------------------------
    def set_idle_pollers(self, n: int) -> None:
        """Number of workers currently idle-polling the list."""
        if n < 0:
            raise ValueError("negative poller count")
        self._idle_pollers = n

    @property
    def idle_pollers(self) -> int:
        return self._idle_pollers

    def lock_wait(self) -> float:
        """Expected extra delay for one lock acquisition right now."""
        duty = self.polling.worker_duty()
        return self.polling.lock_hold * self._idle_pollers * duty

    def message_lock_delay(self) -> float:
        """Extra delay added to one runtime-layer message (§5.4)."""
        return self.lock_wait() * self.polling.locks_per_message
