"""Tests for the DVFS / turbo / AVX / uncore frequency model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Cluster, CoreActivity, HENRI


@pytest.fixture
def machine():
    return Cluster(HENRI, n_nodes=1).machine(0)


def test_idle_cores_at_min_frequency(machine):
    for core in machine.cores:
        assert core.hz == HENRI.freq.min_hz


def test_single_active_core_hits_max_turbo(machine):
    machine.set_core_activity(0, CoreActivity.SCALAR)
    assert machine.cores[0].hz == HENRI.freq.turbo.max_frequency
    # Other cores remain at min.
    assert machine.cores[1].hz == HENRI.freq.min_hz


def test_turbo_drops_with_active_core_count(machine):
    freqs = []
    for i in range(18):  # fill socket 0
        machine.set_core_activity(i, CoreActivity.SCALAR)
        freqs.append(machine.cores[0].hz)
    assert freqs[0] >= freqs[5] >= freqs[-1]
    assert freqs[-1] == HENRI.freq.turbo.frequency(18)


def test_turbo_is_per_socket(machine):
    for i in range(18):
        machine.set_core_activity(i, CoreActivity.SCALAR)
    # Socket 1 untouched: a single active core there gets full turbo.
    machine.set_core_activity(18, CoreActivity.SCALAR)
    assert machine.cores[18].hz == HENRI.freq.turbo.max_frequency


def test_avx_license_lower_than_scalar(machine):
    machine.set_core_activity(0, CoreActivity.AVX512)
    machine.set_core_activity(1, CoreActivity.SCALAR)
    avx_hz = machine.cores[0].hz
    scalar_hz = machine.cores[1].hz
    assert avx_hz < scalar_hz


def test_avx_cores_do_not_drag_down_scalar_core(machine):
    """§3.3: 20 AVX cores at 2.3 GHz, the comm core stays at ~2.5 GHz."""
    for i in range(1, 21):
        machine.set_core_activity(i, CoreActivity.AVX512)
    machine.set_core_activity(0, CoreActivity.SCALAR, uncore_active=False)
    comm_hz = machine.cores[0].hz
    avx_hz = machine.cores[1].hz
    assert avx_hz == HENRI.freq.avx512.frequency(19)  # 18 avx + comm on s0
    assert comm_hz > avx_hz


def test_avx_weak_scaling_frequencies_match_paper(machine):
    """Fig 3b/3c: 4 AVX cores -> 3.0 GHz; 20 AVX cores -> 2.3 GHz."""
    for i in range(4):
        machine.set_core_activity(i, CoreActivity.AVX512)
    assert machine.cores[0].hz == pytest.approx(3.0e9)
    for i in range(4, 18):
        machine.set_core_activity(i, CoreActivity.AVX512)
    # Socket 0 now has 18 active AVX cores -> bottom license bin.
    assert machine.cores[0].hz == pytest.approx(2.3e9)


def test_userspace_governor_pins_everything(machine):
    machine.freq.set_userspace(1.0e9)
    machine.set_core_activity(0, CoreActivity.SCALAR)
    assert machine.cores[0].hz == 1.0e9
    assert machine.cores[20].hz == 1.0e9
    machine.freq.set_userspace(None)
    assert machine.cores[0].hz == HENRI.freq.turbo.max_frequency


def test_userspace_range_enforced(machine):
    with pytest.raises(ValueError):
        machine.freq.set_userspace(5.0e9)
    with pytest.raises(ValueError):
        machine.freq.set_userspace(0.1e9)


def test_uncore_dynamic_ramp(machine):
    s0 = 0
    assert machine.freq.uncore_hz(s0) == HENRI.uncore.min_hz
    # A comm thread (uncore_active=False) does not ramp the uncore.
    machine.set_core_activity(0, CoreActivity.SCALAR, uncore_active=False)
    assert machine.freq.uncore_hz(s0) == HENRI.uncore.min_hz
    # Memory-active cores ramp it.
    for i in range(1, 5):
        machine.set_core_activity(i, CoreActivity.SCALAR, uncore_active=True)
    assert machine.freq.uncore_hz(s0) == HENRI.uncore.max_hz


def test_uncore_pinning(machine):
    machine.set_uncore(1.2e9)
    for i in range(8):
        machine.set_core_activity(i, CoreActivity.SCALAR)
    assert machine.freq.uncore_hz(0) == 1.2e9
    with pytest.raises(ValueError):
        machine.set_uncore(9.9e9)
    machine.set_uncore(None)
    assert machine.freq.uncore_hz(0) == HENRI.uncore.max_hz


def test_uncore_scales_controller_capacity(machine):
    base = HENRI.memory.controller_bw
    machine.set_uncore(HENRI.uncore.max_hz)
    assert machine.numa_nodes[0].controller.capacity == pytest.approx(base)
    machine.set_uncore(HENRI.uncore.min_hz)
    floor = HENRI.memory.uncore_floor
    assert machine.numa_nodes[0].controller.capacity == pytest.approx(
        base * floor)


def test_activity_bookkeeping_idempotent(machine):
    machine.set_core_activity(3, CoreActivity.SCALAR)
    machine.set_core_activity(3, CoreActivity.SCALAR)
    assert machine.freq.active_cores_on_socket(0) == 1
    machine.set_core_activity(3, CoreActivity.AVX512)
    assert machine.freq.active_cores_on_socket(0) == 1
    machine.set_core_activity(3, CoreActivity.IDLE)
    assert machine.freq.active_cores_on_socket(0) == 0
    machine.set_core_activity(3, CoreActivity.IDLE)
    assert machine.freq.active_cores_on_socket(0) == 0


def test_uncore_capacity_factor_range(machine):
    for n_mem in range(10):
        if n_mem:
            machine.set_core_activity(n_mem - 1, CoreActivity.SCALAR,
                                      uncore_active=True)
        factor = machine.freq.uncore_capacity_factor(0)
        assert HENRI.memory.uncore_floor <= factor <= 1.0


_CORE = st.integers(0, HENRI.n_cores - 1)
_LO, _HI = HENRI.freq.allowed_range
_MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("streaming"), _CORE,
              st.sampled_from([0.0, 0.25, 1.0, 2.0, True, False])),
    st.tuples(st.just("activity"), _CORE, st.sampled_from(CoreActivity),
              st.sampled_from([None, True, False])),
    st.tuples(st.just("userspace"),
              st.sampled_from([None, _LO, (_LO + _HI) / 2, _HI])),
    st.tuples(st.just("uncore"),
              st.sampled_from([None, HENRI.uncore.min_hz,
                               HENRI.uncore.max_hz])),
    st.tuples(st.just("cap"), _CORE,
              st.sampled_from([None, 1.0e9, 2.2e9, 5.0e9])),
), min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(mutations=_MUTATIONS)
def test_memoized_pio_delay_and_core_hz_match_fresh_values(mutations):
    machine = Cluster(HENRI, n_nodes=1).machine(0)
    freq = machine.freq
    cores = range(len(machine.cores))
    # Like a batch-mode sampler: read every core's frequency from the
    # epoch listener, which runs before the mutator changes state.
    freq.add_epoch_listener(lambda: [freq.core_hz(c) for c in cores])
    for op in mutations:
        kind = op[0]
        if kind == "streaming":
            machine.set_streaming(op[1], op[2])
        elif kind == "activity":
            machine.set_core_activity(op[1], op[2], op[3])
        elif kind == "userspace":
            freq.set_userspace(op[1])
        elif kind == "uncore":
            machine.set_uncore(op[1])
        else:
            freq.set_core_cap(op[1], op[2])
        for c in cores:
            assert machine.pio_delay(c).hex() == \
                machine._compute_pio_delay(c).hex()
            assert freq.core_hz(c).hex() == freq._compute_core_hz(c).hex()
