"""Runtime façade: core reservation, task submission and completion.

Resource usage follows §5.1 of the paper: on each node one core is
reserved for the communication thread, one for the main (submission)
thread, and one worker is bound to every remaining core (or to the first
``n_workers`` of them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hardware.presets import MachineSpec
from repro.mpi.comm import CommWorld
from repro.runtime.scheduler import EagerScheduler, PollingSpec
from repro.runtime.task import Task
from repro.runtime.worker import Worker
from repro.sim import Event

__all__ = ["RuntimeSpec", "runtime_spec_for", "RuntimeSystem"]


@dataclass(frozen=True)
class RuntimeSpec:
    """Software-stack overheads of the task-based runtime (§5.2).

    ``send_overhead_s`` + ``recv_overhead_s`` is the extra one-way
    latency of a runtime-level message compared to plain MPI (the paper
    measures +38 µs on henri, +23 µs on billy, +45 µs on pyxis): the
    message crosses the request list, a worker, and the communication
    thread before reaching the network library.
    """

    send_overhead_s: float = 23e-6
    recv_overhead_s: float = 15e-6
    task_overhead_s: float = 1.5e-6
    # Extra small-message delay when the data and the communication
    # thread sit on different NUMA nodes (§5.3, Figure 8).
    numa_mismatch_penalty_s: float = 2.0e-6
    worker_resume_s: float = 20e-6
    # The runtime's own request-list / packing operations are memory
    # accesses; as the machine's memory system saturates they stall like
    # everything else (§6: the comm thread's stack inflates, which is
    # what collapses CG's sending bandwidth by ~90 % while GEMM — whose
    # memory system stays well below saturation — only loses ~20 %).
    stack_stall_k: float = 14.0      # inflation factor - 1 at saturation
    stack_stall_power: float = 4.0   # convexity of the inflation curve
    # The scheduler prefers ready tasks whose data sits on the popping
    # worker's socket; False gives the locality-blind eager list.
    scheduler_locality: bool = True

    @property
    def message_overhead_s(self) -> float:
        return self.send_overhead_s + self.recv_overhead_s

    def stack_inflation(self, rho: float) -> float:
        """Multiplier on the message software stack at memory load *rho*."""
        rho = min(max(rho, 0.0), 1.0)
        return 1.0 + self.stack_stall_k * rho ** self.stack_stall_power


_RUNTIME_SPECS: Dict[str, RuntimeSpec] = {
    # Calibrated to §5.2: latency overhead vs plain MPI.
    "henri": RuntimeSpec(send_overhead_s=23e-6, recv_overhead_s=15e-6),
    "billy": RuntimeSpec(send_overhead_s=14e-6, recv_overhead_s=9e-6),
    "pyxis": RuntimeSpec(send_overhead_s=27e-6, recv_overhead_s=18e-6),
    "bora": RuntimeSpec(send_overhead_s=21e-6, recv_overhead_s=14e-6),
}


def runtime_spec_for(spec: MachineSpec) -> RuntimeSpec:
    """Runtime overhead calibration for a machine preset."""
    return _RUNTIME_SPECS.get(spec.name, RuntimeSpec())


class RuntimeSystem:
    """One node's task runtime (a StarPU instance)."""

    def __init__(self, world: CommWorld, rank: int,
                 n_workers: Optional[int] = None,
                 polling: Optional[PollingSpec] = None,
                 spec: Optional[RuntimeSpec] = None):
        self.world = world
        self.rank_id = rank
        self.rank = world.rank(rank)
        self.machine = self.rank.machine
        self.sim = world.sim
        self.spec = spec if spec is not None \
            else runtime_spec_for(self.machine.spec)
        self.scheduler = EagerScheduler(
            polling, machine=self.machine,
            locality=self.spec.scheduler_locality)

        # Core reservation (§5.1): comm core already taken by the world;
        # the next-to-last available core hosts the main thread.
        reserved = {self.rank.comm_core}
        candidates = [c.id for c in self.machine.cores
                      if c.id not in reserved]
        self.main_core = candidates[-1]
        reserved.add(self.main_core)
        worker_cores = [c for c in candidates if c != self.main_core]
        max_workers = len(worker_cores)
        if n_workers is None:
            n_workers = max_workers
        if not (0 <= n_workers <= max_workers):
            raise ValueError(
                f"n_workers must be in [0, {max_workers}], got {n_workers}")
        self.workers: List[Worker] = [
            Worker(self, self.machine, core)
            for core in worker_cores[:n_workers]]

        self.stopped = False
        self.crashed = False
        self._wake: Event = self.sim.event()
        self._idle_workers = 0
        self._idle_pollers = 0
        self._children: Dict[int, List[Task]] = {}
        self._n_pending = 0
        self._all_done: Optional[Event] = None
        self._started = False

        # Fault injection: a fail-stop of this node must reach the
        # runtime so workers die and waiters fail instead of hanging.
        injector = getattr(world.cluster, "fault_injector", None)
        if injector is not None:
            injector.register_runtime(self)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "RuntimeSystem":
        if self._started:
            raise RuntimeError("runtime already started")
        self._started = True
        for worker in self.workers:
            worker.start()
        return self

    def shutdown(self) -> None:
        self.stopped = True
        self._wake_all()

    def crash(self) -> None:
        """Fail-stop the whole node's runtime (fault injection).

        Workers die where they stand, with their in-flight tasks, and
        a pending :meth:`wait_all` fails with a
        :class:`~repro.faults.reliability.TransportError` so campaigns
        observe a structured failure instead of a hang.
        """
        if self.crashed:
            return
        self.crashed = True
        self.stopped = True
        for worker in self.workers:
            worker.crash()
        self._wake_all()
        if self._all_done is not None and not self._all_done.triggered:
            from repro.faults.reliability import TransportError
            self._all_done.fail(
                TransportError("node failed", src=self.rank_id))

    # -- worker wake bookkeeping -----------------------------------------
    def wake_event(self) -> Event:
        return self._wake

    def _wake_all(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()
        self._wake = self.sim.event()

    def worker_went_idle(self) -> None:
        self._idle_workers += 1
        if not self.scheduler.polling.paused:
            self._idle_pollers += 1
            self.scheduler.set_idle_pollers(self._idle_pollers)

    def worker_woke_up(self) -> None:
        self._idle_workers = max(0, self._idle_workers - 1)
        if not self.scheduler.polling.paused:
            self._idle_pollers = max(0, self._idle_pollers - 1)
            self.scheduler.set_idle_pollers(self._idle_pollers)

    @property
    def idle_workers(self) -> int:
        return self._idle_workers

    # -- submission --------------------------------------------------------
    def submit(self, task: Task) -> None:
        """Submit one task; its ``deps`` must already be set."""
        self._n_pending += 1
        for dep in task.deps:
            if not dep.done:
                self._children.setdefault(dep.id, []).append(task)
        task.n_waiting = sum(1 for d in task.deps if not d.done)
        if task.n_waiting == 0:
            self._make_ready(task)

    def _make_ready(self, task: Task) -> None:
        self.scheduler.push(task)
        self._wake_all()

    def on_task_done(self, task: Task) -> None:
        task.done = True
        self._n_pending -= 1
        for child in self._children.pop(task.id, ()):  # release dependents
            child.n_waiting -= 1
            if child.n_waiting == 0:
                self._make_ready(child)
        if self._n_pending == 0 and self._all_done is not None \
                and not self._all_done.triggered:
            self._all_done.succeed()

    def wait_all(self) -> Event:
        """Event firing when every submitted task has completed."""
        self._all_done = self.sim.event()
        if self._n_pending == 0:
            self._all_done.succeed()
        return self._all_done

    # -- external-completion hooks (used by the comm layer) ----------------
    def external_dependency(self) -> Task:
        """A zero-cost placeholder task completed by the comm layer when
        a receive lands; dependents of it are released like any other."""
        from repro.kernels.blas import TileCost
        task = Task(name="recv_gate", cost=TileCost("noop", 0.0, 0.0),
                    rank=self.rank_id)
        return task

    def complete_external(self, task: Task) -> None:
        """Mark an external dependency as done, releasing dependents."""
        self._n_pending += 1  # balance the decrement in on_task_done
        self.on_task_done(task)
