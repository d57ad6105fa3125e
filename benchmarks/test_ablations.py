"""Ablation benches: each modelling mechanism carries its paper effect.

These quantify DESIGN.md §4's claims: removing one mechanism removes (or
distorts) exactly the paper phenomenon it was introduced for.
"""

import pytest

from conftest import note, run_once

from repro.core.record import PAPER_VALUES
from repro.core.registry import run_experiment

CORES = [0, 3, 5, 12, 20, 28, 35]


def _ablation(benchmark, name, **overrides):
    """Run one registered ablation; returns its result."""
    return run_once(benchmark, run_experiment, name, overrides=overrides)


def test_ablation_pio_colocation_carries_fig4a(benchmark):
    obs = _ablation(benchmark, "no_pio_colocation", core_counts=CORES,
                    reps=4).observations
    base_ratio = obs["baseline_latency_max_ratio"]
    abl_ratio = obs["ablated_latency_max_ratio"]
    note(benchmark, with_mechanism=base_ratio, without=abl_ratio)
    # With the penalty the latency doubles; without it, it barely moves
    # (only the uncore-frequency improvement remains).
    assert base_ratio > 1.7
    assert abl_ratio < 1.1


def test_ablation_dma_derating_carries_early_onset(benchmark):
    obs = _ablation(benchmark, "no_dma_derating", core_counts=CORES,
                    reps=4).observations
    base_onset = obs["baseline_bandwidth_impact_from_cores"]
    abl_onset = obs["ablated_bandwidth_impact_from_cores"]
    note(benchmark, with_mechanism=base_onset, without=abl_onset)
    # De-rating makes the bandwidth dip from ~3 cores; without it the
    # impact starts only when the fair share binds (~8+ cores).
    assert base_onset <= 5
    assert abl_onset is None or abl_onset > base_onset
    # The asymptote barely changes (max-min dominates there).
    assert obs["ablated_bandwidth_min_ratio"] == pytest.approx(
        obs["baseline_bandwidth_min_ratio"], abs=0.1)


def test_ablation_dma_priority_carries_asymptote(benchmark):
    obs = _ablation(benchmark, "no_dma_priority", core_counts=CORES,
                    reps=4).observations
    base_floor = obs["baseline_bandwidth_min_ratio"]
    abl_floor = obs["ablated_bandwidth_min_ratio"]
    note(benchmark, with_mechanism=base_floor, without=abl_floor)
    # With the NIC's arbitration weight the floor is the paper's ~1/3;
    # as 'just another core' it collapses far lower.
    assert base_floor == pytest.approx(
        PAPER_VALUES["fig4b-bandwidth-min-ratio"], abs=0.07)
    assert abl_floor < 0.66 * base_floor


def test_ablation_stack_stall_carries_cg_collapse(benchmark):
    result = _ablation(benchmark, "no_stack_stall", worker_counts=(1, 34),
                       n=60_000, iterations=2)
    base = result["baseline_sending_bw"]
    abl = result["ablated_sending_bw"]
    base_loss = 1 - base.at(34) / base.at(1)
    abl_loss = 1 - abl.at(34) / abl.at(1)
    note(benchmark, with_mechanism=base_loss, without=abl_loss)
    # Stack stalling carries most of CG's §6 collapse.
    assert base_loss > 0.55
    assert abl_loss < base_loss - 0.2


def test_ablation_scheduler_locality_shields_gemm(benchmark):
    obs = _ablation(benchmark, "no_scheduler_locality", n_workers=34,
                    n=2048, tile=128).observations
    base = obs["baseline_stall_fraction"]
    blind = obs["ablated_stall_fraction"]
    note(benchmark, with_mechanism=base, without=blind)
    # A locality-blind scheduler sends about half the bytes across a
    # socket (and about 3/4 off the local NUMA node); GEMM's stalls
    # inflate well past the paper's ~20 %.
    assert blind > base * 1.3
