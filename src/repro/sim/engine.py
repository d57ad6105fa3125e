"""Deterministic discrete-event simulation engine.

The engine keeps a binary heap of ``(time, seq, callback)`` entries.  The
monotonically increasing sequence number makes execution order of
same-time events deterministic (FIFO), which in turn makes every
experiment in this repository reproducible bit-for-bit.

Processes are plain Python generators.  A process may ``yield``:

* a ``float``/``int`` — sleep for that many simulated seconds;
* an :class:`~repro.sim.events.Event` — wait until it triggers (its value
  becomes the value of the ``yield`` expression; a failed event raises);
* another :class:`Process` — wait for it to finish (a ``Process`` *is* an
  event that triggers with the generator's return value).

Example
-------
>>> sim = Simulator()
>>> out = []
>>> def worker(sim):
...     yield 1.5
...     out.append(sim.now)
...     return "done"
>>> p = sim.process(worker(sim))
>>> sim.run()
>>> out
[1.5]
>>> p.value
'done'

Engine internals (heap hygiene and the dispatch contract)
---------------------------------------------------------
Cancelling or rescheduling a handle does not remove its heap entry; the
entry lingers as *stale* and is recognised (generation mismatch or
cancelled flag) and dropped when it surfaces.  Hot fluid workloads
re-arm completion handles on nearly every rate solve, so stale entries
can outnumber live ones.  The simulator therefore keeps a running count
of stale entries and, once they exceed both ``compact_min`` and half the
heap, rebuilds the heap in place with only live entries
(:meth:`Simulator._compact`).  Compaction never reorders live entries —
dispatch order is the total order on ``(time, seq)`` and ``heapify``
preserves it — so seeded artifacts are byte-identical with or without
compaction.

What *is* observable is the event count: each ``run()`` books the
callbacks it dispatched into the ambient telemetry's ``sim.events``
counter once, on the way out, and that count lands in metrics exports
and journal deltas.  Stale entries are skipped without dispatching (and
were already skipped pre-compaction), so removing them early is
identity-safe; changing the number of real dispatches is not.  Any
optimisation here must preserve the exact sequence of dispatched
``(time, seq)`` pairs and the exact number of sequence numbers consumed
(one per ``schedule``/``reschedule`` call or plain sleep).

Plain sleeps (numeric yields) skip the heap when they can.  A sleep
takes its sequence number when it is yielded but parks its entry in the
one-slot ``_tail``; ``run()`` dispatches the slot directly when it sorts
below the heap head by ``(time, seq)``, after the same stop/drain,
horizon and stale checks a popped entry meets, and otherwise moves it
into the heap as the head comes out.  A second parked sleep pushes the
first into the heap; ``peek()`` and compaction fold the slot in, and
the compaction threshold counts it.  The slot is thus one more place a
pending entry sits, and dispatch order, sequence numbers and counters
are exactly those of the heap alone.

There is one dispatch loop, :meth:`Simulator.run`, and three kinds of
horizon: none (drain the foreground), a time, or an :class:`Event` (run
until it has triggered -- the way to drive a simulation whose daemon
samplers or looping kernels never let the queue drain).  Telemetry and
invariant toggles are sampled when ``run()`` is entered; installing a
telemetry sink or enabling invariant checks from *inside* a callback
takes effect on the next ``run()`` call, not mid-loop.  All call sites
in this repository install/enable before running.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple, Union

from repro.obs import context as _obs_context
from repro.sim import invariants as _inv
from repro.sim.events import Event, Interrupt, Timeout

__all__ = ["Simulator", "Process", "ScheduledHandle", "SimulationError"]

_INF = float("inf")
#: The ``stop`` event of a ``run()`` without an event horizon.
_NEVER = Event()


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


class ScheduledHandle:
    """Cancellable handle for a scheduled callback.

    ``daemon`` entries (background samplers, watchdogs) never keep the
    event loop alive: ``run()`` without a horizon stops once only
    daemon events remain, like daemon threads at interpreter exit.

    A handle may be re-armed with :meth:`Simulator.reschedule`, which
    bumps ``generation``; heap entries carry the generation they were
    pushed with, so a superseded entry is recognised as stale when it
    surfaces and skipped without a callback (this avoids allocating a
    fresh handle per reschedule in hot paths such as fluid-flow
    completion updates).
    """

    __slots__ = ("time", "cancelled", "fired", "daemon", "generation", "sim")

    def __init__(self, time: float, daemon: bool = False,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.cancelled = False
        self.fired = False
        self.daemon = daemon
        self.generation = 0
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        Cancelling a handle whose callback has already run is a no-op:
        the heap entry is gone, so there is nothing to revoke and the
        handle must not be flagged as cancelled (a stale handle kept by
        e.g. a timeout that lost the race with its event would otherwise
        misreport state to whoever inspects it next).
        """
        if not self.fired and not self.cancelled:
            self.cancelled = True
            if self.sim is not None:
                self.sim._note_stale(self.daemon)


class Simulator:
    """Event loop with virtual time.

    Time is a ``float`` in seconds.  ``run(until=...)`` executes events in
    order until the queue is empty or the horizon is reached.
    """

    #: Stale entries tolerated before compaction is even considered.
    compact_min = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: List[
            Tuple[float, int, ScheduledHandle, int, Callable, tuple]] = []
        self._processing_events: List[Event] = []
        self._foreground = 0  # live (dispatchable) non-daemon entries
        self._n_stale = 0     # stale entries still sitting in the heap
        #: One parked plain-sleep entry, not yet in the heap (see the
        #: module docstring); part of the queue for every count.
        self._tail: Optional[
            Tuple[float, int, ScheduledHandle, int, Callable, tuple]] = None
        # Lifetime counters (cheap ints; surfaced by ``repro profile``
        # and, behind an explicit opt-in, the metrics registry).
        self.stale_skips = 0
        self.heap_compactions = 0
        self.events_dispatched = 0
        #: Entries dispatched straight from ``_tail``, past the heap
        #: (kept out of :meth:`engine_stats`: an implementation count,
        #: booked as ``engine.direct_dispatches`` only on opt-in).
        self.direct_dispatches = 0
        #: Optional ``hook(time, seq, callback, args)`` invoked for every
        #: *dispatched* event (tests: golden event-order pinning).
        self.dispatch_hook: Optional[Callable] = None

    # -- time -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args: Any,
                 daemon: bool = False) -> ScheduledHandle:
        """Schedule ``callback(*args)`` to run after *delay* seconds."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule with delay={delay!r}: must be >= 0")
        time = self._now + delay
        handle = ScheduledHandle(time, daemon, self)
        self._seq += 1
        heapq.heappush(self._queue,
                       (time, self._seq, handle, 0, callback, args))
        if not daemon:
            self._foreground += 1
        return handle

    def schedule_at(self, time: float, callback: Callable, *args: Any,
                    daemon: bool = False) -> ScheduledHandle:
        """Schedule ``callback(*args)`` at absolute simulated *time*.

        Daemon entries do not keep a horizon-less ``run()`` alive.
        """
        if not time >= self._now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {time!r}: before now={self._now!r}")
        handle = ScheduledHandle(time, daemon, self)
        self._seq += 1
        heapq.heappush(self._queue,
                       (time, self._seq, handle, 0, callback, args))
        if not daemon:
            self._foreground += 1
        return handle

    def reschedule(self, handle: ScheduledHandle, time: float,
                   callback: Callable, *args: Any) -> ScheduledHandle:
        """Re-arm *handle* for ``callback(*args)`` at absolute *time*.

        Reuses the handle object instead of allocating a new one: the
        generation counter is bumped, so the superseded heap entry (if
        still queued) becomes stale and is dropped when popped.  The
        handle's ``daemon`` flag is retained.
        """
        if not time >= self._now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {time!r}: before now={self._now!r}")
        # A still-pending entry becomes stale; its foreground slot (if
        # any) transfers to the new entry.  A fired or cancelled handle
        # has no live entry, so the new one claims a fresh slot.
        superseded = not handle.fired and not handle.cancelled
        handle.time = time
        handle.cancelled = False
        handle.fired = False
        handle.generation += 1
        self._seq += 1
        heapq.heappush(
            self._queue,
            (time, self._seq, handle, handle.generation, callback, args))
        if superseded:
            self._n_stale += 1
            if self._n_stale >= self.compact_min and \
                    self._n_stale * 2 >= self._queued():
                self._compact()
        elif not handle.daemon:
            self._foreground += 1
        return handle

    def _note_stale(self, daemon: bool) -> None:
        """A pending heap entry just became stale (via ``cancel``)."""
        self._n_stale += 1
        if not daemon:
            self._foreground -= 1
        if self._n_stale >= self.compact_min and \
                self._n_stale * 2 >= self._queued():
            self._compact()

    def _queued(self) -> int:
        """Entries pending in the heap and the parked ``_tail`` slot."""
        return len(self._queue) + (self._tail is not None)

    def _flush_tail(self) -> None:
        """Move the parked sleep, if any, into the heap."""
        tail = self._tail
        if tail is not None:
            self._tail = None
            heapq.heappush(self._queue, tail)

    def _compact(self) -> None:
        """Drop stale entries and re-heapify, in place.

        In place matters: ``run()`` holds a local reference to the queue
        list, so the rebuild must mutate that same object.  Dispatch
        order is unchanged — it is the total order on ``(time, seq)``,
        which any heap over the surviving entries reproduces.  The
        parked ``_tail`` joins the heap first, so a stale one is dropped
        here exactly as it would have been from the heap.
        """
        self._flush_tail()
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if not (entry[2].cancelled
                            or entry[3] != entry[2].generation)]
        heapq.heapify(queue)
        self._n_stale = 0
        self.heap_compactions += 1

    def _schedule_event(self, event: Event) -> None:
        """Schedule an already-triggered event's callbacks to run now.

        Events triggered from inside the loop dispatch their callbacks as
        a zero-delay queue entry, preserving FIFO ordering between events
        triggered in the same callback.
        """
        self.schedule(0.0, event._run_callbacks)  # noqa: SLF001

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event` bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                daemon: bool = False) -> Timeout:
        """Create an event that fires after *delay* seconds."""
        return Timeout(self, delay, value, daemon=daemon)

    def process(self, generator: Generator, daemon: bool = False) -> "Process":
        """Start a new process from *generator*.

        A daemon process (periodic sampler, watchdog) never keeps a
        horizon-less ``run()`` alive on its own.
        """
        return Process(self, generator, daemon=daemon)

    # -- running -------------------------------------------------------------
    def run(self, until: Union[None, float, Event] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            * ``None`` -- run until no *foreground* events remain (daemon
              entries alone never sustain the loop).
            * a time -- stop once the next event would be strictly after
              *until*, then advance ``now`` to *until*.
            * an :class:`Event` -- dispatch until it has triggered,
              checked before every pop.  Daemon entries keep dispatching
              and ``now`` stays at the last dispatched event; an event
              that never triggers raises :class:`SimulationError` once
              the queue drains.

        Telemetry/invariant switches are sampled on entry (see module
        docstring); same-instant event bursts dispatch back-to-back
        against those cached locals without re-reading ambient state.
        """
        queue = self._queue
        pop = heapq.heappop
        replace = heapq.heapreplace
        inv_on = _inv.ENABLED
        telemetry = _obs_context._ACTIVE
        hook = self.dispatch_hook
        drain = until is None
        stop = until if isinstance(until, Event) else _NEVER
        horizon = _INF if drain or stop is not _NEVER else until
        dispatched = direct = 0
        stale0 = self.stale_skips
        compact0 = self.heap_compactions
        try:
            while True:
                if drain:
                    if not self._foreground:
                        return
                elif stop._triggered:
                    return
                entry = self._tail
                if entry is not None:
                    if not queue or entry < queue[0]:
                        # The parked sleep is the next entry: dispatch
                        # it without a heap round-trip.
                        time = entry[0]
                        if time > horizon:
                            break
                        self._tail = None
                        direct += 1
                    else:
                        head = queue[0]
                        time = head[0]
                        if time > horizon:
                            break
                        self._tail = None
                        replace(queue, entry)
                        entry = head
                elif queue:
                    entry = queue[0]
                    time = entry[0]
                    if time > horizon:
                        break
                    pop(queue)
                else:
                    break
                handle = entry[2]
                if handle.cancelled or entry[3] != handle.generation:
                    self._n_stale -= 1
                    self.stale_skips += 1
                    continue
                if not handle.daemon:
                    self._foreground -= 1
                handle.fired = True
                if inv_on and time < self._now:
                    raise _inv.InvariantViolation(
                        f"event time moved backwards: popped {time!r} "
                        f"with now={self._now!r} (heap corrupted)")
                self._now = time
                dispatched += 1
                if hook is not None:
                    hook(time, entry[1], entry[4], entry[5])
                entry[4](*entry[5])
            if stop is not _NEVER:
                if not stop._triggered:
                    raise SimulationError(
                        f"event queue drained before {until!r} triggered")
            elif not drain and until > self._now:
                self._now = until
        finally:
            self.events_dispatched += dispatched
            self.direct_dispatches += direct
            if telemetry is not None:
                telemetry.on_engine_stats(
                    dispatched,
                    self.stale_skips - stale0,
                    self.heap_compactions - compact0,
                    direct)

    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none."""
        self._flush_tail()
        queue = self._queue
        while queue:
            head = queue[0]
            handle = head[2]
            if not (handle.cancelled or head[3] != handle.generation):
                break
            heapq.heappop(queue)
            self._n_stale -= 1
            self.stale_skips += 1
        return queue[0][0] if queue else _INF

    def step(self) -> None:
        """Dispatch exactly the next pending callback: ``run()`` until
        one dispatch (``perfbench/test_perfbench.py`` still calls it)."""
        if self.peek() == _INF:
            raise SimulationError("step() on an empty event queue")
        done, hook = Event(), self.dispatch_hook

        def mark(*entry):
            done._triggered = True
            if hook is not None:
                hook(*entry)

        self.dispatch_hook = mark
        try:
            self.run(until=done)
        finally:
            self.dispatch_hook = hook

    def engine_stats(self) -> dict:
        """Lifetime engine counters (``repro profile`` / opt-in metrics)."""
        return {
            "engine.events_dispatched": self.events_dispatched,
            "engine.stale_skips": self.stale_skips,
            "engine.heap_compactions": self.heap_compactions,
        }


class Process(Event):
    """A running generator; also an event that fires on completion."""

    __slots__ = ("_generator", "_waiting_on", "_sleep_handle", "_sleep_gen",
                 "_sleep_reuse", "name", "daemon")

    def __init__(self, sim: Simulator, generator: Generator, name: str = "",
                 daemon: bool = False):
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._sleep_handle: Optional[ScheduledHandle] = None
        self._sleep_reuse: Optional[ScheduledHandle] = None
        self._sleep_gen = 0
        self.name = name or getattr(generator, "__name__", "process")
        self.daemon = daemon
        # Kick off on the next tick so creation order doesn't matter.
        sim.schedule(0.0, self._resume, None, None, daemon=daemon)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its current yield."""
        if self.triggered:
            return
        waiting = self._waiting_on
        self._waiting_on = None
        if waiting is not None:
            # Detach: leave a tombstone callback that ignores the event.
            try:
                waiting.callbacks.remove(self._on_event)
            except ValueError:
                pass
        # Detach a pending plain sleep.  The queue entry is *not*
        # cancelled: it fires later as a no-op dispatch, exactly like a
        # detached Timeout's empty callback list did, so event counts
        # (and with them metrics exports) are unchanged.
        self._sleep_handle = None
        self.sim.schedule(0.0, self._resume, None, Interrupt(cause),
                          daemon=self.daemon)

    # -- driving the generator -------------------------------------------
    def _on_event(self, event: Event) -> None:
        self._waiting_on = None
        if event.ok:
            self._resume(event.value, None)
        else:
            self._resume(None, event._exception)  # noqa: SLF001

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            return
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except _inv.InvariantViolation:
            # A failed self-check is corrupted simulator state, not a
            # process outcome: fail the run, not just this process.
            raise
        except Exception as error:
            self.fail(error)
            return
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        if isinstance(target, (int, float)):
            # Numeric yields (plain sleeps) are by far the most common
            # wait, so they skip the Timeout/Event allocation and the
            # callback indirection entirely: one queue entry resuming
            # the generator directly.  Exactly one sequence number either
            # way, so the order of same-instant events is identical to
            # the Timeout path.
            if not target >= 0:  # also rejects NaN
                # Same contract as Timeout: reject before scheduling.
                raise ValueError(f"invalid timeout delay: {target!r}")
            gen = self._sleep_gen = self._sleep_gen + 1
            # Re-arm the previous sleep handle when its entry has
            # already fired, as reschedule() would, instead of
            # allocating one.  An interrupted sleep leaves its entry
            # pending (fired is False), so a fresh handle is used and
            # the orphan entry still dispatches as a counted no-op.
            sim = self.sim
            time = sim._now + target
            handle = self._sleep_reuse
            if handle is not None and handle.fired:
                handle.time = time
                handle.fired = False
                handle.generation += 1
            else:
                handle = self._sleep_reuse = ScheduledHandle(
                    time, self.daemon, sim)
            if not handle.daemon:
                sim._foreground += 1
            # Consume the sequence number now, exactly as schedule()
            # would, but park the entry in the simulator's one-slot
            # tail (a sleep already parked moves to the heap): run()
            # dispatches it without touching the heap when it is still
            # the earliest entry (see the module docstring).
            sim._seq += 1
            tail = sim._tail
            if tail is not None:
                heapq.heappush(sim._queue, tail)
            sim._tail = (time, sim._seq, handle, handle.generation,
                         self._sleep_fired, (gen,))
            self._sleep_handle = handle
            return
        if not isinstance(target, Event):
            self._resume(
                None,
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; expected a "
                    "delay, Event or Process"),
            )
            return
        self._waiting_on = target
        target.add_callback(self._on_event)

    def _sleep_fired(self, gen: int) -> None:
        if gen != self._sleep_gen or self._sleep_handle is None:
            return  # stale: the sleep was interrupted away
        self._sleep_handle = None
        self._resume(None, None)
