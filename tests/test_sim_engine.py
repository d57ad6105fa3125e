"""Unit tests for the discrete-event engine (repro.sim.engine/events)."""

import pytest

from repro.sim import AllOf, AnyOf, Event, Interrupt, Simulator, SimulationError


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_and_run_order():
    sim = Simulator()
    out = []
    sim.schedule(2.0, lambda: out.append("b"))
    sim.schedule(1.0, lambda: out.append("a"))
    sim.schedule(3.0, lambda: out.append("c"))
    sim.run()
    assert out == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fifo():
    sim = Simulator()
    out = []
    for i in range(10):
        sim.schedule(1.0, out.append, i)
    sim.run()
    assert out == list(range(10))


def test_schedule_in_past_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(2.0, lambda: None)


def test_cancel_handle():
    sim = Simulator()
    out = []
    handle = sim.schedule(1.0, out.append, "x")
    handle.cancel()
    sim.run()
    assert out == []


def test_run_until_horizon():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, 1)
    sim.schedule(10.0, out.append, 10)
    sim.run(until=5.0)
    assert out == [1]
    assert sim.now == 5.0
    sim.run()
    assert out == [1, 10]


def test_run_until_advances_time_when_queue_empty():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_event():
    sim = Simulator()
    out = []
    done = sim.event()
    done.succeed("already")
    sim.run()
    sim.schedule(1.0, out.append, "a")
    # An already-triggered event returns without dispatching.
    sim.run(until=done)
    assert out == [] and sim.peek() == 1.0

    # The run stops right after the triggering dispatch: later entries
    # (even at the same instant) stay queued and `now` is the trigger's.
    ev = sim.event()
    sim.schedule(2.0, ev.succeed)
    sim.schedule(2.0, out.append, "b")
    sim.schedule(5.0, out.append, "c")
    sim.run(until=ev)
    assert ev.triggered and out == ["a"] and sim.now == 2.0
    assert sim.peek() == 2.0

    # Daemon entries alone keep an event-horizon run going.
    sim.run()
    assert out == ["a", "b", "c"]
    ticks = []

    def ticker():
        while True:
            yield 1.0
            ticks.append(sim.now)

    sim.process(ticker(), daemon=True)
    late = sim.timeout(3.5, daemon=True)
    sim.run(until=late)
    assert ticks == [6.0, 7.0, 8.0] and sim.now == 8.5

    # A queue that drains first raises, naming the event.
    bare = Simulator()
    bare.schedule(1.0, out.append, "d")
    with pytest.raises(SimulationError, match="drained before"):
        bare.run(until=bare.event())
    assert out[-1] == "d" and bare.now == 1.0


def test_peek_and_step():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "a")
    sim.schedule(2.0, out.append, "b")
    assert sim.peek() == 1.0
    sim.step()
    assert out == ["a"]
    assert sim.peek() == 2.0
    sim.step()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_skips_cancelled():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    assert sim.peek() == 2.0


def test_process_timeout_and_return_value():
    sim = Simulator()

    def proc(sim):
        yield 1.5
        yield 0.5
        return "finished"

    p = sim.process(proc(sim))
    sim.run()
    assert sim.now == 2.0
    assert p.triggered and p.value == "finished"


def test_process_waits_on_event():
    sim = Simulator()
    gate = sim.event()
    out = []

    def waiter(sim):
        value = yield gate
        out.append((sim.now, value))

    sim.process(waiter(sim))
    sim.schedule(3.0, gate.succeed, "go")
    sim.run()
    assert out == [(3.0, "go")]


def test_process_waits_on_process():
    sim = Simulator()
    out = []

    def child(sim):
        yield 2.0
        return 7

    def parent(sim):
        value = yield sim.process(child(sim))
        out.append((sim.now, value))

    sim.process(parent(sim))
    sim.run()
    assert out == [(2.0, 7)]


def test_failed_event_raises_in_process():
    sim = Simulator()
    gate = sim.event()
    out = []

    def waiter(sim):
        try:
            yield gate
        except ValueError as err:
            out.append(str(err))

    sim.process(waiter(sim))
    sim.schedule(1.0, gate.fail, ValueError("boom"))
    sim.run()
    assert out == ["boom"]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def bad(sim):
        yield 1.0
        raise RuntimeError("inner")

    def outer(sim):
        with pytest.raises(RuntimeError, match="inner"):
            yield sim.process(bad(sim))
        return "handled"

    p = sim.process(outer(sim))
    sim.run()
    assert p.value == "handled"


def test_yield_invalid_value_fails_process():
    sim = Simulator()

    def proc(sim):
        yield "not an event"

    p = sim.process(proc(sim))
    sim.run()
    assert p.triggered and not p.ok


def test_interrupt():
    sim = Simulator()
    out = []

    def sleeper(sim):
        try:
            yield 100.0
        except Interrupt as intr:
            out.append((sim.now, intr.cause))

    p = sim.process(sleeper(sim))
    sim.schedule(5.0, p.interrupt, "wake")
    sim.run()
    assert out == [(5.0, "wake")]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick(sim):
        yield 1.0
        return "ok"

    p = sim.process(quick(sim))
    sim.run()
    p.interrupt("late")
    sim.run()
    assert p.value == "ok"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_allof_collects_values_in_order():
    sim = Simulator()
    evts = [sim.timeout(3.0, "c"), sim.timeout(1.0, "a"), sim.timeout(2.0, "b")]
    combined = AllOf(sim, evts)
    sim.run()
    assert combined.value == ["c", "a", "b"]


def test_allof_empty_fires_immediately():
    sim = Simulator()
    combined = AllOf(sim, [])
    assert combined.triggered and combined.value == []


def test_anyof_first_wins():
    sim = Simulator()
    evts = [sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")]
    first = AnyOf(sim, evts)
    sim.run()
    assert first.value == (1, "fast")


def test_anyof_requires_events():
    sim = Simulator()
    with pytest.raises(ValueError):
        AnyOf(sim, [])


def test_nested_processes_deep_chain():
    sim = Simulator()

    def level(sim, depth):
        if depth == 0:
            yield 1.0
            return 0
        below = yield sim.process(level(sim, depth - 1))
        return below + 1

    p = sim.process(level(sim, 20))
    sim.run()
    assert p.value == 20
    assert sim.now == 1.0


def test_timeout_negative_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-0.5)


def test_nan_delays_rejected():
    # Regression: NaN passed every `< 0` / `< now` guard, so `yield nan`
    # set `now` to NaN and the next event moved the clock back.
    nan = float("nan")
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    for call in (lambda: sim.schedule(nan, print),
                 lambda: sim.schedule_at(nan, print),
                 lambda: sim.reschedule(handle, nan, print)):
        with pytest.raises(SimulationError, match="nan"):
            call()
    with pytest.raises(ValueError, match="nan"):
        sim.timeout(nan)

    def sleeper():
        yield nan

    sim.process(sleeper())
    with pytest.raises(ValueError, match="nan"):
        sim.run()
    assert sim.now == 0.0
    sim.run()
    assert sim.now == 1.0


def test_many_processes_determinism():
    def run_once():
        sim = Simulator()
        out = []

        def proc(sim, i):
            yield (i % 5) * 0.1
            out.append(i)
            yield 0.05
            out.append(-i)

        for i in range(50):
            sim.process(proc(sim, i))
        sim.run()
        return out

    assert run_once() == run_once()


def test_cancel_after_fire_is_noop():
    # Regression: cancelling a handle whose callback already ran used to
    # mark it cancelled anyway, misreporting state to later inspectors.
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert handle.fired and not handle.cancelled
    handle.cancel()
    assert not handle.cancelled
    handle.cancel()  # still idempotent
    assert not handle.cancelled


def test_cancel_before_fire_still_cancels():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "a")
    handle.cancel()
    assert handle.cancelled and not handle.fired
    sim.run()
    assert fired == []
    assert not handle.fired


def test_daemon_events_do_not_sustain_run():
    # Regression: a periodic daemon process (e.g. an energy sampler)
    # used to make a horizon-less run() loop forever; now run() stops
    # once only daemon entries remain.
    sim = Simulator()
    ticks = []

    def sampler(sim):
        while True:
            ticks.append(sim.now)
            yield 1.0

    def work(sim):
        yield 3.5

    sim.process(sampler(sim), daemon=True)
    proc = sim.process(work(sim))
    sim.run()
    assert proc.triggered
    assert sim.now == 3.5
    assert ticks == [0.0, 1.0, 2.0, 3.0]


def test_daemon_events_fire_up_to_horizon():
    sim = Simulator()
    ticks = []

    def sampler(sim):
        while True:
            ticks.append(sim.now)
            yield 1.0

    sim.process(sampler(sim), daemon=True)
    sim.run(until=2.0)
    assert ticks == [0.0, 1.0, 2.0]
    assert sim.now == 2.0


def test_daemon_only_queue_leaves_clock_untouched():
    sim = Simulator()
    sim.schedule(5.0, lambda: None, daemon=True)
    sim.run()
    assert sim.now == 0.0


# -- direct dispatch of the earliest sleep ----------------------------------
# A plain sleep parks in the simulator's one-slot tail and is dispatched
# without a heap round-trip when it is the earliest entry; these pin
# the checks that path shares with the heap path.

def test_parked_sleep_stays_queued_past_a_horizon():
    sim = Simulator()
    out = []

    def sleeper():
        yield 1.0
        out.append(sim.now)
        yield 5.0
        out.append(sim.now)

    sim.process(sleeper())
    sim.run(until=3.0)
    assert out == [1.0] and sim.now == 3.0
    assert sim.direct_dispatches == 1
    assert sim.peek() == 6.0
    sim.run()
    assert out == [1.0, 6.0] and sim.now == 6.0


def test_stop_event_triggered_in_callback_prevents_direct_dispatch():
    sim = Simulator()
    stop = Event()  # bare: triggers without queueing a callback entry
    out = []

    def sleeper():
        yield 1.0
        stop.succeed()
        yield 0.0
        out.append(sim.now)

    sim.process(sleeper())
    sim.run(until=stop)
    assert out == [] and sim.now == 1.0
    assert sim.peek() == 1.0
    sim.run()
    assert out == [1.0]


def test_parked_daemon_sleep_does_not_sustain_drain():
    sim = Simulator()
    ticks = []

    def sampler():
        for _ in range(10):
            ticks.append(sim.now)
            yield 1.0

    sim.process(sampler(), daemon=True)
    sim.schedule(2.5, lambda: None)
    sim.run()
    assert ticks == [0.0, 1.0, 2.0] and sim.now == 2.5
    assert sim.direct_dispatches == 2
    assert sim.peek() == 3.0


def test_raising_callback_leaves_parked_sleep_for_next_run():
    sim = Simulator()
    gate = sim.event()
    out = []

    def waiter():
        yield gate
        yield 2.0
        out.append(sim.now)

    def boom(event):
        raise RuntimeError("boom")

    sim.process(waiter())
    sim.run()
    gate.add_callback(boom)  # runs right after the waiter parks its sleep
    gate.succeed()
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert sim.now == 0.0 and out == []
    sim.run()
    assert out == [2.0] and sim.direct_dispatches == 1


def test_interrupted_sleep_orphan_dispatches_as_counted_noop():
    sim = Simulator()
    out = []
    log = []
    sim.dispatch_hook = lambda t, seq, cb, args: log.append(
        (t, cb.__qualname__))

    def sleeper():
        try:
            yield 5.0
        except Interrupt:
            out.append(("interrupted", sim.now))
        yield 1.0
        out.append(("woke", sim.now))

    p = sim.process(sleeper())
    sim.schedule(2.0, p.interrupt, "x")
    sim.run()
    assert out == [("interrupted", 2.0), ("woke", 3.0)]
    # The 1.0 sleep beats the orphan 5.0 entry and goes direct; the
    # orphan still dispatches, as a no-op, and is counted.
    assert log == [(0.0, "Process._resume"), (2.0, "Process.interrupt"),
                   (2.0, "Process._resume"), (3.0, "Process._sleep_fired"),
                   (3.0, "Event._run_callbacks"),
                   (5.0, "Process._sleep_fired")]
    assert sim.events_dispatched == 6 and sim.direct_dispatches == 1
    assert sim.now == 5.0
