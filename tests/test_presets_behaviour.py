"""Cross-cluster behaviour: billy / bora / pyxis differences from the paper.

§2.2–§5 mention several per-cluster deltas; these tests check the preset
calibrations reproduce their direction.
"""

import pytest

from repro.core import experiments as E
from repro.core.record import PAPER_VALUES
from repro.hardware import BILLY, BORA, Cluster, HENRI, PYXIS
from repro.kernels import cursor_for_intensity, tunable_triad
from repro.mpi import CommWorld, PingPong

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("preset", ["henri", "bora", "billy", "pyxis"])
def test_pingpong_works_on_all_presets(preset):
    world = CommWorld(Cluster(preset, 2), comm_placement="near")
    res = PingPong(world).run(4, reps=10)
    assert 0.5e-6 < res.median_latency < 5e-6


@pytest.mark.parametrize("preset,lo,hi", [
    ("henri", 9e9, 11e9),    # EDR
    ("billy", 20e9, 24e9),   # HDR 200 Gb/s: about twice EDR
    ("pyxis", 9e9, 11e9),    # EDR
])
def test_asymptotic_bandwidth_matches_link_generation(preset, lo, hi):
    world = CommWorld(Cluster(preset, 2), comm_placement="near")
    res = PingPong(world).run(64 << 20, reps=3)
    assert lo < res.bandwidth < hi


def test_pyxis_arm_latency_higher_than_henri():
    """§5.2 hints the ARM software stack is slower (more cycles/op)."""
    lat = {}
    for preset in ("henri", "pyxis"):
        world = CommWorld(Cluster(preset, 2), comm_placement="near")
        lat[preset] = PingPong(world).run(4, reps=10).median_latency
    assert lat["pyxis"] > lat["henri"]


def test_bora_noise_wider_than_henri():
    """§3.2: 'on bora, the network bandwidth has a wide deviation'."""
    bands = {}
    for preset in ("henri", "bora"):
        world = CommWorld(Cluster(preset, 2), comm_placement="near")
        res = PingPong(world).run(64 << 20, reps=15)
        bands[preset] = (res.p90_latency - res.p10_latency) \
            / res.median_latency
    assert bands["bora"] > 2 * bands["henri"]


def test_runtime_overhead_ordering_across_clusters():
    """§5.2: +38 us (henri), +23 us (billy), +45 us (pyxis)."""
    overheads = {}
    for preset in ("henri", "billy", "pyxis"):
        expected = PAPER_VALUES[f"runtime_overhead-{preset}"]
        res = E.runtime_overhead(spec=preset, reps=8)
        overheads[preset] = res.observations["overhead_s"]
        assert overheads[preset] == pytest.approx(expected, rel=0.25)
    assert overheads["billy"] < overheads["henri"] < overheads["pyxis"]


def test_billy_ridge_higher_than_henri():
    """§4.5: memory/compute boundary at ~6 flop/B on henri vs ~20 on
    billy (higher per-core compute-to-bandwidth ratio at the NUMA
    level)."""
    def bw_recovery_intensity(preset):
        res = E.fig7b(spec=preset,
                      cursors=[1, 24, 72, 144, 240, 480, 960],
                      reps=3, elems=2_000_000, sweeps=3)
        return res.observations["ridge_flop_per_byte"]

    henri_ridge = bw_recovery_intensity("henri")
    billy_ridge = bw_recovery_intensity("billy")
    assert henri_ridge is not None and billy_ridge is not None
    assert billy_ridge > henri_ridge


def test_per_core_peaks_differ():
    assert BILLY.memory.per_core_bw > HENRI.memory.per_core_bw
    assert PYXIS.memory.per_core_bw < BILLY.memory.per_core_bw
    # ThunderX2 has no turbo: frequency flat.
    assert PYXIS.freq.turbo.max_frequency == PYXIS.freq.turbo.min_frequency
