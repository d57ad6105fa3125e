"""Cycle counters: the cached ``totals()`` aggregate.

``totals()`` is read around every message while telemetry is on, so it
is cached between ``CycleCounters.record`` calls.  The cache must be
invisible: every read equals a fresh per-core sum bitwise, and nothing a
caller does to a returned value can leak into the next read.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.counters import CounterTotals, CycleCounters

CORES = (0, 1, 2, 3)
FIELDS = ("busy", "mem_stall", "flops", "bytes_moved", "contention_stall")


def _fresh_sum(counters, cores=CORES):
    """Per-core sum in bank order, the way an uncached read adds up."""
    sums = [0.0] * len(FIELDS)
    for c in cores:
        st_ = counters.state(c)
        for i, name in enumerate(FIELDS):
            sums[i] += getattr(st_, name)
    return tuple(sums)


def test_totals_reflect_each_new_slice():
    counters = CycleCounters(CORES)
    assert counters.totals() == (0.0,) * len(FIELDS)
    counters.record(1, busy=2.0, mem_stall=0.5, flops=10.0,
                    bytes_moved=64.0, contention_stall=0.25)
    first = counters.totals()
    assert (first.busy, first.mem_stall, first.flops) == (2.0, 0.5, 10.0)
    counters.record(3, busy=1.0, mem_stall=1.0)
    second = counters.totals()
    assert (second.busy, second.mem_stall) == (3.0, 1.5)
    assert (second.bytes_moved, second.contention_stall) == (64.0, 0.25)


def test_totals_is_cached_between_records():
    counters = CycleCounters(CORES)
    counters.record(0, busy=1.0)
    assert counters.totals() is counters.totals()
    cached = counters.totals()
    counters.record(0, busy=1.0)
    assert counters.totals() is not cached


def test_totals_read_by_an_epoch_listener_is_not_kept():
    """Epoch listeners run before record() changes the bank (a batch
    sampler flushes the closing epoch then); a totals() read there must
    not survive as the cached value for the new state."""
    counters = CycleCounters(CORES)
    seen = []
    counters.add_epoch_listener(lambda: seen.append(counters.totals().busy))
    counters.record(0, busy=1.0)
    counters.record(1, busy=2.0)
    assert seen == [0.0, 1.0]
    assert counters.totals().busy == 3.0


def test_returned_totals_cannot_corrupt_the_cache():
    counters = CycleCounters(CORES)
    counters.record(2, busy=1.5, mem_stall=0.5)
    agg = counters.totals()
    assert isinstance(agg, CounterTotals)
    with pytest.raises(AttributeError):
        agg.busy = 99.0
    assert counters.totals().busy == 1.5
    assert CycleCounters.stall_fraction(agg) == pytest.approx(1 / 3)


_slices = st.lists(
    st.tuples(st.sampled_from(CORES),
              st.floats(1e-12, 1e3),
              st.floats(0.0, 1.0),
              st.floats(0.0, 1e9),
              st.booleans()),
    max_size=40)


@given(_slices)
def test_totals_equal_a_fresh_sum_bitwise(slices):
    """Reads interleaved with records (or not) always equal a from-scratch
    per-core sum to the last bit; the sum is order-sensitive, so any
    reordering or stale cache entry would show."""
    counters = CycleCounters(CORES)
    for core, busy, frac, flops, read in slices:
        counters.record(core, busy=busy, mem_stall=busy * frac,
                        flops=flops, bytes_moved=flops / 3,
                        contention_stall=busy * frac / 2)
        if read:
            assert tuple(counters.totals()) == _fresh_sum(counters)
    assert tuple(counters.totals()) == _fresh_sum(counters)
    assert counters.totals() == tuple(
        getattr(counters.delta({}), name) for name in FIELDS)
