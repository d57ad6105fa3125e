"""Worker threads: task execution and busy-wait polling.

Each worker is bound to one core (§5.1: one worker per core not reserved
for the main or communication thread).  An idle worker polls the shared
ready list; the steady-state contention of that polling is accounted by
the scheduler (see :mod:`repro.runtime.scheduler`), while the *reaction
latency* — half a backoff period between a task being pushed and a
worker noticing — is simulated here.

Task execution follows the roofline model exactly like standalone
kernels: compute at the live core frequency, memory as a fluid flow from
the task's dominant data's NUMA node, stalls recorded in the counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.hardware.frequency import CoreActivity
from repro.hardware.topology import Machine
from repro.obs.context import active_telemetry
from repro.runtime.task import Task
from repro.sim import noisy
from repro.sim.events import Interrupt

__all__ = ["Worker"]


class Worker:
    """One worker thread bound to a core."""

    def __init__(self, runtime, machine: Machine, core_id: int):
        self.runtime = runtime
        self.machine = machine
        self.core_id = core_id
        self.tasks_executed = 0
        self.busy_time = 0.0
        self._process = None
        self._rng = None  # lazily bound noise stream (one per worker)

    def start(self) -> None:
        self._process = self.machine.sim.process(self._loop())

    def crash(self) -> None:
        """Fail-stop this worker (fault injection): the worker thread
        dies at its current yield point, and its in-flight task with it."""
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("worker crash")

    # ------------------------------------------------------------------
    def _loop(self) -> Generator:
        runtime = self.runtime
        sched = runtime.scheduler
        polling = sched.polling
        machine = self.machine
        machine.set_core_activity(self.core_id, CoreActivity.SCALAR,
                                  uncore_active=False)
        # Reaction latency after a push: a polling worker notices it on
        # average half a backoff period later; paused workers must be
        # resumed by the runtime - a far slower wake-up path (futex +
        # context switch).
        wake_latency = runtime.spec.worker_resume_s if polling.paused \
            else polling.poll_period / 2.0
        discarded = False
        try:
            my_socket = machine.cores[self.core_id].socket_id
            while not runtime.stopped:
                task = sched.pop(worker_socket=my_socket)
                if task is None:
                    runtime.worker_went_idle()
                    try:
                        yield runtime.wake_event()
                    finally:
                        runtime.worker_woke_up()
                    if runtime.stopped:
                        return
                    yield wake_latency
                    continue
                yield from self._execute(task)
        except Interrupt:
            # Crash injection: the worker dies here.
            pass
        except GeneratorExit:
            # The suspended loop is being closed because its simulation
            # was discarded (GC of a dead cluster).  Restoring core
            # state would mutate a dead machine at a GC-dependent
            # moment — observable as nondeterministic telemetry.
            discarded = True
            raise
        finally:
            if not discarded:
                machine.set_core_activity(self.core_id, CoreActivity.IDLE)
                machine.set_streaming(self.core_id, False)

    def _execute(self, task: Task) -> Generator:
        machine = self.machine
        sim = machine.sim
        rng = self._rng
        if rng is None:
            rng = self._rng = machine.rng.stream(f"worker{self.core_id}")
        spec = machine.spec
        task.start_time = sim.now
        tele = active_telemetry()
        span = None if tele is None else tele.begin_span(
            machine, self.core_id, task.name, "task",
            flops=task.cost.flops, bytes=task.cost.bytes)

        # Per-task runtime management overhead (dequeue, codelet setup).
        overhead = noisy(self.runtime.spec.task_overhead_s, spec.noise, rng)
        yield overhead

        vector = getattr(task.cost, "vector", False)
        activity = CoreActivity.AVX512 if vector else CoreActivity.SCALAR
        nbytes = task.cost.bytes
        machine.set_core_activity(self.core_id, activity,
                                  uncore_active=nbytes > 0)
        hz = machine.freq.core_hz(self.core_id)
        fpc = spec.avx_flops_per_cycle if vector else spec.flops_per_cycle
        cpu_time = task.cost.flops / (fpc * hz) \
            if task.cost.flops > 0 else 0.0
        cpu_time = noisy(cpu_time, spec.noise, rng)
        data_numa = task.data_numa()
        if data_numa is None:
            data_numa = machine.cores[self.core_id].numa_id

        t0 = sim.now
        if nbytes > 0:
            demand = spec.memory.per_core_bw
            if cpu_time > 0:
                demand = min(demand, nbytes / cpu_time)
            machine.set_streaming(self.core_id,
                                  machine.streaming_weight(demand))
            flow = machine.net.transfer(
                machine.load_path(self.core_id, data_numa), size=nbytes,
                demand=demand, label=f"task:{task.name}")
            try:
                yield flow.done
            except Interrupt:
                # Crash mid-flow: release the fluid bandwidth the dead
                # worker was consuming before propagating.
                machine.net.stop_flow(flow)
                machine.set_streaming(self.core_id, False)
                raise
            mem_time = sim.now - t0
            if mem_time < cpu_time:
                yield cpu_time - mem_time
            machine.set_streaming(self.core_id, False)
        elif cpu_time > 0:
            yield cpu_time
        machine.set_core_activity(self.core_id, CoreActivity.SCALAR,
                                  uncore_active=False)

        exec_time = sim.now - t0
        stall = max(0.0, exec_time - cpu_time)
        machine.counters.record(self.core_id, busy=exec_time + overhead,
                                mem_stall=stall, flops=task.cost.flops,
                                bytes_moved=nbytes)
        task.end_time = sim.now
        self.tasks_executed += 1
        self.busy_time += exec_time + overhead
        if tele is not None:
            tele.finish_span(machine, span)
            tele.on_task_done(machine, self.core_id, task,
                              busy=exec_time + overhead, stall=stall)
        self.runtime.on_task_done(task)
