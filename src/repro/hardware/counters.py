"""Simulated CPU performance counters.

The paper uses ``pmu-tools``/``perf`` to measure the fraction of
execution time the CPU is stalled on memory accesses (Figure 10, bottom
panel).  In the simulator, kernels know exactly which share of each
executed slice was memory-bound, so the counters are maintained by
construction rather than sampled.

Counters are cumulative; experiments snapshot them before/after a phase
and subtract (:meth:`CycleCounters.snapshot` / :meth:`CycleCounters.delta`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Optional

from repro.sim.trace import EpochSource

__all__ = ["CoreCounterState", "CounterTotals", "CycleCounters"]


@dataclass
class CoreCounterState:
    """Accumulated per-core times, in seconds."""

    busy: float = 0.0           # executing anything
    mem_stall: float = 0.0      # of which: stalled on memory accesses
    flops: float = 0.0          # floating point operations retired
    bytes_moved: float = 0.0    # DRAM traffic caused by this core

    def copy(self) -> "CoreCounterState":
        return CoreCounterState(self.busy, self.mem_stall,
                                self.flops, self.bytes_moved)


class CounterTotals(NamedTuple):
    """Immutable machine-wide aggregate returned by
    :meth:`CycleCounters.totals` (same fields as
    :class:`CoreCounterState`)."""

    busy: float
    mem_stall: float
    flops: float
    bytes_moved: float


class CycleCounters(EpochSource):
    """Per-core counter bank for one machine.

    An :class:`~repro.sim.trace.EpochSource`: every recorded slice
    advances the epoch generation, so samplers probing counter
    aggregates can reuse cached values between slices (and batch-emit
    them) instead of re-walking the bank per tick.
    """

    def __init__(self, core_ids: Iterable[int]):
        self._state: Dict[int, CoreCounterState] = {
            c: CoreCounterState() for c in core_ids}
        # totals() cache; record() clears it.
        self._totals: Optional[CounterTotals] = None

    def record(self, core_id: int, busy: float, mem_stall: float = 0.0,
               flops: float = 0.0, bytes_moved: float = 0.0) -> None:
        """Accumulate a finished execution slice on *core_id*."""
        if busy < 0 or mem_stall < 0 or mem_stall > busy * (1 + 1e-9):
            raise ValueError(
                f"invalid slice: busy={busy}, mem_stall={mem_stall}")
        self._bump_epoch()
        st = self._state[core_id]
        st.busy += busy
        st.mem_stall += min(mem_stall, busy)
        st.flops += flops
        st.bytes_moved += bytes_moved
        # Cleared after the update, not keyed on the epoch: a listener
        # of the bump above may read totals() before the state changes.
        self._totals = None

    def state(self, core_id: int) -> CoreCounterState:
        """Live per-core counters: read them, change them only through
        :meth:`record` (which keeps the :meth:`totals` cache valid)."""
        return self._state[core_id]

    def totals(self) -> CounterTotals:
        """Machine-wide aggregate of all cores, without copying the bank.

        The telemetry layer samples it before and after every transfer
        to attribute the memory-stall cycles that overlapped it (the
        Fig-10 correlation substrate), so it is called far more often
        than :meth:`record`.  The O(cores) sum is therefore cached until
        the next :meth:`record`; a cache hit is O(1).  The sum runs in
        bank order either way, so a cached value is bitwise the one a
        fresh sum would give, and it is an immutable tuple that no
        caller can corrupt.
        """
        totals = self._totals
        if totals is None:
            busy = mem_stall = flops = bytes_moved = 0.0
            for st in self._state.values():
                busy += st.busy
                mem_stall += st.mem_stall
                flops += st.flops
                bytes_moved += st.bytes_moved
            totals = self._totals = CounterTotals(
                busy, mem_stall, flops, bytes_moved)
        return totals

    def snapshot(self) -> Dict[int, CoreCounterState]:
        """Copy of all counters, for later :meth:`delta`."""
        return {c: st.copy() for c, st in self._state.items()}

    def delta(self, before: Dict[int, CoreCounterState],
              cores: Optional[Iterable[int]] = None) -> CoreCounterState:
        """Aggregate counters accumulated since *before* over *cores*."""
        total = CoreCounterState()
        selected = list(cores) if cores is not None else list(self._state)
        for c in selected:
            now = self._state[c]
            prev = before.get(c, CoreCounterState())
            total.busy += now.busy - prev.busy
            total.mem_stall += now.mem_stall - prev.mem_stall
            total.flops += now.flops - prev.flops
            total.bytes_moved += now.bytes_moved - prev.bytes_moved
        return total

    @staticmethod
    def stall_fraction(agg: "CoreCounterState | CounterTotals") -> float:
        """Fraction of busy time stalled on memory (the paper's metric)."""
        if agg.busy <= 0:
            return 0.0
        return agg.mem_stall / agg.busy
