"""Dispatch-order regression tests for the compacting event engine.

PR 9 rewrote the engine hot loop (stale-entry accounting, threshold
heap compaction, batched same-instant dispatch).  None of that may move
a single event: dispatch order is the total order on ``(time, seq)``
and every consumer — trace files, metrics, the seeded campaigns — leans
on it for byte-identical artifacts.  Two guards:

* a **golden** test pins the full ``(time, seq, callback)`` dispatch
  sequence of a seeded fast ``fig1a`` run against
  ``tests/data/golden_fig1a_events.json`` (regenerate with the snippet
  in that test's docstring after an *intentional* ordering change);
* a **property** test drives randomized schedule/reschedule/cancel/
  interrupt churn through two engines — compaction effectively disabled
  vs. aggressively enabled — and asserts identical dispatch sequences;
* a second property drives churn with sleeping processes through the
  engine and through :class:`HeapOnlySimulator`, whose sleeps go
  straight to the heap, and asserts the direct dispatch of the earliest
  sleep moves no event, counter or sequence number.
"""

import hashlib
import heapq
import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.registry import run_experiment
from repro.sim import Interrupt
from repro.sim.engine import SimulationError, Simulator

GOLDEN = Path(__file__).parent / "data" / "golden_fig1a_events.json"


def _capture_fig1a():
    """Run fast fig1a with a dispatch hook on every simulator created."""
    records = []
    orig_init = Simulator.__init__

    def patched(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)

        def hook(t, seq, callback, cb_args, _r=records.append):
            _r(f"{t!r} {seq} "
               f"{getattr(callback, '__qualname__', repr(callback))}")
        self.dispatch_hook = hook

    Simulator.__init__ = patched
    try:
        run_experiment("fig1a", fast=True)
    finally:
        Simulator.__init__ = orig_init
    return records


def test_fig1a_dispatch_order_golden():
    """The seeded fig1a fast run dispatches the exact pinned sequence.

    If this fails after an *intentional* engine/model ordering change,
    regenerate the golden with::

        PYTHONPATH=src python -c "
        import tests.test_sim_engine_order as m; m.regen_golden()"
    """
    records = _capture_fig1a()
    golden = json.loads(GOLDEN.read_text())
    assert len(records) == golden["events"]
    assert records[:5] == golden["head"]
    assert records[-5:] == golden["tail"]
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == golden["sha256"]


def regen_golden():  # pragma: no cover - maintenance helper
    records = _capture_fig1a()
    doc = {
        "experiment": "fig1a", "mode": "fast", "spec": "henri",
        "events": len(records),
        "sha256": hashlib.sha256("\n".join(records).encode()).hexdigest(),
        "head": records[:5], "tail": records[-5:],
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Property: compaction never reorders live entries.
# ---------------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 20)),
        st.tuples(st.just("daemon"), st.integers(0, 20)),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("resched"), st.integers(0, 63),
                  st.integers(0, 20)),
        st.tuples(st.just("spawn"), st.integers(1, 20)),
        st.tuples(st.just("interrupt"), st.integers(0, 63)),
        st.tuples(st.just("run"), st.integers(0, 30)),
        st.tuples(st.just("until_proc"), st.integers(0, 63)),
    ),
    min_size=1, max_size=60)


def _drive(ops, compact_min):
    """Apply *ops* to a fresh engine; return the full dispatch log."""
    sim = Simulator()
    sim.compact_min = compact_min
    log = []
    sim.dispatch_hook = lambda t, seq, cb, args: log.append(
        (t, seq, getattr(cb, "__qualname__", repr(cb))))
    handles = []
    procs = []

    def sleeper(total):
        try:
            yield total * 0.1
        except BaseException:  # Interrupt — swallow and finish
            pass

    for op in ops:
        kind = op[0]
        if kind == "schedule" or kind == "daemon":
            handles.append(sim.schedule(op[1] * 0.1, lambda: None,
                                        daemon=kind == "daemon"))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "resched":
            if handles:
                sim.reschedule(handles[op[1] % len(handles)],
                               sim.now + op[2] * 0.1, lambda: None)
        elif kind == "spawn":
            procs.append(sim.process(sleeper(op[1])))
        elif kind == "interrupt":
            if procs:
                procs[op[1] % len(procs)].interrupt("churn")
        elif kind == "run":
            sim.run(until=sim.now + op[1] * 0.1)
        elif kind == "until_proc":
            if procs:
                sim.run(until=procs[op[1] % len(procs)])
    sim.run()
    return log, sim.heap_compactions


@settings(max_examples=120, deadline=None)
@given(ops=_OPS)
def test_compaction_preserves_dispatch_order(ops):
    plain, n_plain = _drive(ops, compact_min=1 << 30)
    compacted, n_compacted = _drive(ops, compact_min=1)
    assert n_plain == 0
    assert plain == compacted


# ---------------------------------------------------------------------------
# Property: dispatching the earliest sleep past the heap moves nothing.
# ---------------------------------------------------------------------------

class HeapOnlySimulator(Simulator):
    """The engine with its direct path off: a parked sleep goes straight
    into the heap, so ``run()`` never finds one in the slot."""

    @property
    def _tail(self):
        return None

    @_tail.setter
    def _tail(self, entry):
        if entry is not None:
            heapq.heappush(self._queue, entry)


_SLEEPS = st.lists(st.integers(0, 6), min_size=1, max_size=8)

# Each op may be preceded by a spawn, so most runs see sleeps that are
# the earliest entry when they park.
_SLEEP_OPS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.tuples(st.just("spawn"), _SLEEPS,
                                       st.booleans(), st.booleans())),
        st.one_of(
            st.tuples(st.just("schedule"), st.integers(0, 20)),
            st.tuples(st.just("daemon"), st.integers(0, 20)),
            st.tuples(st.just("cancel"), st.integers(0, 63)),
            st.tuples(st.just("resched"), st.integers(0, 63),
                      st.integers(0, 20)),
            st.tuples(st.just("interrupt"), st.integers(0, 63)),
            st.tuples(st.just("release"), st.integers(0, 10)),
            # Churn from inside a callback, while a sleep may be parked.
            st.tuples(st.just("gate_cancel"), st.integers(0, 63)),
            st.tuples(st.just("gate_resched"), st.integers(0, 63),
                      st.integers(0, 20)),
            st.tuples(st.just("gate_cancel_sleep"), st.integers(0, 63)),
            st.tuples(st.just("run"), st.integers(0, 30)),
            st.tuples(st.just("until_proc"), st.integers(0, 63)),
            st.tuples(st.just("until_event"), st.integers(0, 30)),
        )),
    min_size=1, max_size=40).map(
        lambda pairs: [op for pair in pairs for op in pair if op])


def _drive_sleepers(sim, ops):
    """Apply *ops* to *sim*; return the dispatch log and engine state."""
    log = []
    sim.dispatch_hook = lambda t, seq, cb, args: log.append(
        (t, seq, getattr(cb, "__qualname__", repr(cb))))
    handles = []
    procs = []
    gate = [sim.event()]

    def sleeper(steps, side):
        # Zero and positive sleeps; with *side*, a callback is queued
        # right before each sleep parks, and the sleeper first waits
        # for the shared gate, so several sleepers resume (and park)
        # from one callback.
        if side:
            yield gate[0]
        for step in steps:
            if side:
                sim.schedule(step * 0.05, lambda: None)
            try:
                yield step * 0.1
            except Interrupt:
                pass  # sleep again: the orphan entry stays queued

    for op in ops:
        kind = op[0]
        if kind == "schedule" or kind == "daemon":
            handles.append(sim.schedule(op[1] * 0.1, lambda: None,
                                        daemon=kind == "daemon"))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "resched":
            if handles:
                sim.reschedule(handles[op[1] % len(handles)],
                               sim.now + op[2] * 0.1, lambda: None)
        elif kind == "spawn":
            procs.append(sim.process(sleeper(op[1], op[3]), daemon=op[2]))
        elif kind == "interrupt":
            if procs:
                procs[op[1] % len(procs)].interrupt("churn")
        elif kind == "gate_cancel" and handles:
            gate[0].add_callback(
                lambda ev, h=handles[op[1] % len(handles)]: h.cancel())
        elif kind == "gate_resched" and handles:
            gate[0].add_callback(
                lambda ev, h=handles[op[1] % len(handles)], d=op[2]:
                sim.reschedule(h, sim.now + d * 0.1, lambda: None))
        elif kind == "gate_cancel_sleep" and procs:
            def cancel_sleep(ev, proc=procs[op[1] % len(procs)]):
                if proc._sleep_handle is not None:
                    proc._sleep_handle.cancel()
            gate[0].add_callback(cancel_sleep)
        elif kind == "release":
            sim.schedule(op[1] * 0.1, gate[0].succeed)
            gate[0] = sim.event()
        elif kind == "run":
            sim.run(until=sim.now + op[1] * 0.1)
        elif kind == "until_proc":
            if procs:
                try:
                    sim.run(until=procs[op[1] % len(procs)])
                except SimulationError:  # gated on an unreleased gate
                    log.append("drained")
        elif kind == "until_event":
            stop = sim.event()
            sim.schedule(op[1] * 0.1, stop.succeed)
            sim.run(until=stop)
        log.append(sim.now)
    sim.run()
    gate[0].succeed()
    sim.run()
    return log, sim.engine_stats(), sim._seq, sim.now


@settings(max_examples=200, deadline=None)
@given(ops=_SLEEP_OPS, compact_min=st.sampled_from([1, 4, 64]))
# A cancel lands while a sleep is parked, one entry short of the
# compaction threshold unless the parked sleep is counted.
@example(ops=[("schedule", 5), ("spawn", [1], False, True), ("run", 0),
              ("gate_cancel", 0), ("release", 0)], compact_min=1)
def test_direct_dispatch_preserves_dispatch_order(ops, compact_min):
    direct, heap_only = Simulator(), HeapOnlySimulator()
    direct.compact_min = heap_only.compact_min = compact_min
    assert _drive_sleepers(direct, ops) == _drive_sleepers(heap_only, ops)
    assert heap_only.direct_dispatches == 0
