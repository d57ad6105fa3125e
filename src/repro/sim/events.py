"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot synchronisation point: it starts
*pending*, is *triggered* exactly once with a value (or an exception) and
then invokes its callbacks.  Processes wait on events by ``yield``-ing
them (see :mod:`repro.sim.engine`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

__all__ = ["Event", "Timeout", "AllOf", "AnyOf", "Interrupt"]


class Interrupt(Exception):
    """Raised inside a process that is interrupted by another process."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """One-shot event.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.  Only needed when
        the event is triggered via :meth:`succeed`/:meth:`fail` so that the
        callbacks run inside the event loop; a bare container event can be
        created with ``sim=None`` and triggered manually.
    """

    __slots__ = ("sim", "_value", "_exception", "_triggered", "_processed", "callbacks")

    def __init__(self, sim=None):
        self.sim = sim
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self.callbacks: List[Callable[["Event"], None]] = []

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise RuntimeError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Processes waiting on the event will see the exception raised at
        their ``yield`` statement.
        """
        if self._triggered:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        if self.sim is not None:
            self.sim._schedule_event(self)
        else:
            self._run_callbacks()

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run *cb(event)* when the event is processed (immediately if it
        already has been)."""
        if self._processed:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """Event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay: float, value: Any = None,
                 daemon: bool = False):
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"invalid timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = float(delay)
        sim.schedule(delay, self._fire, value, daemon=daemon)

    def _fire(self, value: Any) -> None:
        self._triggered = True
        self._value = value
        self._run_callbacks()


class AllOf(Event):
    """Fires when *all* child events have fired.

    The value is the list of child values in the order given.  If any
    child fails, this event fails with the first failure.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim, events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev._exception)  # noqa: SLF001 - same module family
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(Event):
    """Fires when the *first* child event fires; value is ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, sim, events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        for idx, ev in enumerate(self._children):
            ev.add_callback(lambda e, i=idx: self._on_child(i, e))

    def _on_child(self, idx: int, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev._exception)  # noqa: SLF001
            return
        self.succeed((idx, ev.value))
