"""Time-series recording for simulated quantities.

Used to reproduce the paper's frequency-trace figures (Figures 2, 3b,
3c): a :class:`PeriodicSampler` process samples a callable at a fixed
simulated period and appends to a :class:`Trace`.

Epoch-batched sampling (PR 9)
-----------------------------
Every quantity the samplers probe — core/uncore frequencies, power,
counter aggregates — is *piecewise-constant*: it only moves when some
model mutator runs (an activity change, a governor pin, a recorded
execution slice).  Paying one heap event plus one Python probe call per
tick to re-read an unchanged value is the single largest sampling cost
in the dense-trace figures.

Models that want cheap sampling inherit :class:`EpochSource`: each
mutator calls ``_bump_epoch()`` *before* changing observable state,
which advances ``epoch_generation`` and synchronously notifies
registered listeners.  A :class:`PeriodicSampler` given
``epoch_sources`` then runs in one of two modes:

* **tick mode** (the legacy behaviour, forced whenever a telemetry
  sink is active): one daemon event per period.  The epoch generation
  still lets it skip the probe calls when nothing changed since the
  previous tick — the cached values are bit-identical by construction,
  so traces (and the artifacts rendered from them) do not change.
* **batch mode** (no telemetry sink): no heap events at all.  The
  sampler registers as an epoch listener; right before a source
  mutates, it emits every pending tick of the closing epoch as one
  vectorized numpy append (constant value, the exact tick-time chain
  ``t += period`` the event path would have produced).  ``stop()``
  flushes the tail.  Tick mode stays available because removing the
  per-tick heap events changes the engine's dispatched-event count,
  which telemetry exports into metrics artifacts — batch mode is
  therefore auto-disabled when a sink is recording.

The one observable difference of batch mode: a tick that lands
*bitwise-exactly* on a mutation instant records the pre-mutation value,
where tick mode's outcome depends on heap tie-breaking.  None of the
repo's experiments schedules a mutation on the sampling grid.

Callers own the epoch contract: ``epoch_sources`` must cover every
mutable model a probe reads.  With no sources the sampler behaves
exactly as before PR 9.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import context as _obs_context

__all__ = ["Trace", "PeriodicSampler", "EpochSource"]


class EpochSource:
    """Mixin for models whose observable state moves in discrete epochs.

    Mutators call :meth:`_bump_epoch` immediately *before* changing any
    state a probe might read; listeners (batch-mode samplers) use the
    notification to flush the closing epoch while it is still readable.
    """

    epoch_generation: int = 0
    _epoch_listeners: Tuple[Callable[[], None], ...] = ()

    def add_epoch_listener(self, callback: Callable[[], None]) -> None:
        self._epoch_listeners = self._epoch_listeners + (callback,)

    def remove_epoch_listener(self, callback: Callable[[], None]) -> None:
        # Equality, not identity: bound methods are recreated per
        # access, so ``source.remove_epoch_listener(self._on_epoch)``
        # must match the equal-but-distinct object registered earlier.
        self._epoch_listeners = tuple(
            cb for cb in self._epoch_listeners if cb != callback)

    def _bump_epoch(self) -> None:
        self.epoch_generation += 1
        for callback in self._epoch_listeners:
            callback()


class Trace:
    """Named multi-series time trace.

    Series are created lazily on first append and stored as ordered
    *legs*: a leg is either a plain list of ``(time, value)`` points
    (scalar :meth:`record` appends) or a pair of numpy arrays (one
    :meth:`record_block` append).  Appends must be chronological per
    series — true for any single producer — and the read API presents
    the concatenation.
    """

    __slots__ = ("_legs",)

    def __init__(self) -> None:
        self._legs: Dict[str, List[object]] = {}

    def record(self, name: str, time: float, value: float) -> None:
        legs = self._legs.setdefault(name, [])
        if legs and type(legs[-1]) is list:
            legs[-1].append((time, float(value)))
        else:
            legs.append([(time, float(value))])

    def record_block(self, name: str, times: np.ndarray,
                     values: np.ndarray) -> None:
        """Append a chronological block of samples in one shot."""
        if len(times) != len(values):
            raise ValueError("times/values length mismatch")
        if len(times):
            self._legs.setdefault(name, []).append(
                (np.asarray(times, dtype=float),
                 np.asarray(values, dtype=float)))

    def _arrays(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        legs = self._legs.get(name)
        if not legs:
            empty = np.array([])
            return empty, empty
        times: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for leg in legs:
            if type(leg) is list:
                times.append(np.array([t for t, _ in leg]))
                values.append(np.array([v for _, v in leg]))
            else:
                times.append(leg[0])
                values.append(leg[1])
        if len(times) == 1:
            return times[0], values[0]
        return np.concatenate(times), np.concatenate(values)

    def names(self) -> List[str]:
        return sorted(self._legs)

    def times(self, name: str) -> np.ndarray:
        return self._arrays(name)[0]

    def values(self, name: str) -> np.ndarray:
        return self._arrays(name)[1]

    def last(self, name: str) -> Optional[float]:
        legs = self._legs.get(name)
        if not legs:
            return None
        tail = legs[-1]
        if type(tail) is list:
            return tail[-1][1]
        return float(tail[1][-1])

    def window(self, name: str, t0: float, t1: float) -> np.ndarray:
        """Values of *name* with ``t0 <= t < t1``."""
        times, values = self._arrays(name)
        if not times.size:
            return values
        return values[(times >= t0) & (times < t1)]

    def mean(self, name: str, t0: float = 0.0,
             t1: float = float("inf")) -> float:
        window = self.window(name, t0, t1)
        if window.size == 0:
            raise ValueError(f"no samples for {name!r} in [{t0}, {t1})")
        return float(window.mean())


class PeriodicSampler:
    """Samples ``probes`` every *period* simulated seconds into a trace.

    Parameters
    ----------
    sim:
        The simulator driving time.
    probes:
        Mapping of series name to zero-argument callables returning the
        instantaneous value.
    period:
        Sampling period (seconds).
    epoch_sources:
        :class:`EpochSource` models covering *everything* the probes
        read.  Enables epoch-batched emission (see module docstring);
        empty keeps the legacy one-event-per-tick behaviour.
    """

    def __init__(self, sim, probes: Dict[str, Callable[[], float]],
                 period: float, trace: Optional[Trace] = None,
                 epoch_sources: Sequence[EpochSource] = ()):
        if period <= 0:
            raise ValueError("sampling period must be > 0")
        self.sim = sim
        self.probes = dict(probes)
        self.period = float(period)
        self.trace = trace if trace is not None else Trace()
        self.epoch_sources = tuple(epoch_sources)
        self._names = list(self.probes)
        self._funcs = [self.probes[n] for n in self._names]
        self._running = False
        self._process = None
        self._batch = False
        # Batch-mode state: time of the next unemitted tick and the
        # cached probe values of the current epoch (None = stale).
        self._next_time = 0.0
        self._values: Optional[List[float]] = None

    def start(self) -> "PeriodicSampler":
        if self._running:
            raise RuntimeError("sampler already running")
        self._running = True
        self._batch = bool(self.epoch_sources) \
            and _obs_context._ACTIVE is None
        if self._batch:
            self._next_time = self.sim.now
            self._values = None
            for source in self.epoch_sources:
                source.add_epoch_listener(self._on_epoch)
        else:
            # Daemon: a sampler must never keep a horizon-less run()
            # alive (callers would hang draining an endless schedule).
            self._process = self.sim.process(self._run(), daemon=True)
        return self

    def stop(self) -> Trace:
        if self._running and self._batch:
            self._flush()
            for source in self.epoch_sources:
                source.remove_epoch_listener(self._on_epoch)
        self._running = False
        return self.trace

    # -- batch mode ---------------------------------------------------------
    def _on_epoch(self) -> None:
        """Epoch listener: a source is about to mutate — emit every
        pending tick of the closing epoch, then drop the value cache."""
        self._flush()
        self._values = None

    def _flush(self) -> None:
        now = self.sim.now
        t = self._next_time
        if t > now:
            return
        values = self._values
        if values is None:
            values = self._values = [func() for func in self._funcs]
        # The exact per-tick time chain the event path would produce:
        # each tick schedules the next at now + period.
        period = self.period
        ticks: List[float] = []
        while t <= now:
            ticks.append(t)
            t += period
        self._next_time = t
        arr = np.array(ticks)
        trace = self.trace
        for name, value in zip(self._names, values):
            trace.record_block(name, arr, np.full(len(ticks), value))

    # -- tick mode ----------------------------------------------------------
    def _run(self):
        sources = self.epoch_sources
        names = self._names
        funcs = self._funcs
        trace = self.trace
        values: Optional[List[float]] = None
        gen = -1
        while self._running:
            if sources:
                g = 0
                for source in sources:
                    g += source.epoch_generation
                if values is None or g != gen:
                    values = [func() for func in funcs]
                    gen = g
            else:
                values = [func() for func in funcs]
            now = self.sim.now
            for name, value in zip(names, values):
                trace.record(name, now, value)
            yield self.period
