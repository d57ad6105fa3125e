"""Tests for the mechanism ablations and the spec fields behind them."""

import json

import pytest

from repro.cli import main
from repro.core import registry
from repro.core.placement import ALL_PLACEMENTS
from repro.hardware import HENRI
from repro.hardware.topology import Cluster
from repro.mpi.comm import CommWorld
from repro.runtime.apps import run_cg, run_gemm
from repro.runtime.runtime import RuntimeSpec, RuntimeSystem
from repro.runtime.scheduler import EagerScheduler

ABLATIONS = {"no_pio_colocation", "no_dma_derating", "no_dma_priority",
             "no_stack_stall", "no_scheduler_locality"}
FAST_COUNTS = [0, 20, 35]


def _fig4_ablation(name):
    return registry.run_experiment(
        name, overrides=dict(core_counts=FAST_COUNTS, reps=3))


def test_all_ablations_table_is_complete():
    assert set(registry.names(tag="ablation")) == ABLATIONS


def test_all_ablations_have_registry_wrappers():
    for name in ABLATIONS:
        defn = registry.get(name)
        assert "ablation" in defn.tags
        assert name not in registry.run_all_names()
        assert defn.fast_kwargs


def test_pio_colocation_ablation_removes_latency_doubling():
    result = _fig4_ablation("no_pio_colocation")
    base_ratio = result.observations["baseline_latency_max_ratio"]
    abl_ratio = result.observations["ablated_latency_max_ratio"]
    # The mechanism carries fig4a's doubling: without it the latency
    # inflation mostly disappears.
    assert base_ratio > 1.5
    assert abl_ratio < base_ratio


def test_dma_priority_ablation_collapses_bandwidth():
    result = _fig4_ablation("no_dma_priority")
    # An unweighted NIC keeps less of its bandwidth under contention.
    assert result.observations["ablated_bandwidth_min_ratio"] \
        < result.observations["baseline_bandwidth_min_ratio"]


def test_registered_wrapper_builds_comparable_result():
    result = registry.run_experiment("no_pio_colocation", fast=True)
    assert result.name == "no_pio_colocation"
    base_keys = {k for k in result.series if k.startswith("baseline_")}
    abl_keys = {k for k in result.series if k.startswith("ablated_")}
    assert base_keys and len(base_keys) == len(abl_keys)
    assert {k.replace("baseline_", "ablated_") for k in base_keys} \
        == abl_keys
    assert "baseline_latency_max_ratio" in result.observations
    assert "ablated_latency_max_ratio" in result.observations
    # The wrapper renders like any other experiment.
    text = registry.get("no_pio_colocation").render(result)
    assert "no_pio_colocation" in text


def test_runtime_ablations_honour_spec():
    """The runtime ablations run on the requested machine: the baseline
    is exactly ``run_cg`` on that spec."""
    result = registry.run_experiment("no_stack_stall", spec="billy",
                                     fast=True)
    kw = registry.get("no_stack_stall").fast_kwargs
    base = result["baseline_sending_bw"]
    assert base.x == [float(nw) for nw in kw["worker_counts"]]
    for nw, bw in zip(kw["worker_counts"], base.median):
        cg = run_cg(spec="billy", n_workers=nw, n=kw["n"],
                    iterations=kw["iterations"])
        assert bw == cg.sending_bandwidth


def test_runtime_spec_switches_scheduler_locality():
    cluster = Cluster(HENRI, n_nodes=2)
    world = CommWorld(cluster)
    default = RuntimeSystem(world, 0, n_workers=1)
    blind = RuntimeSystem(world, 1, n_workers=1,
                          spec=RuntimeSpec(scheduler_locality=False))
    assert default.scheduler.locality
    assert not blind.scheduler.locality
    machine = cluster.machine(0)
    assert EagerScheduler(None, machine).locality
    assert not EagerScheduler(None, machine, locality=False).locality


def test_ablations_leave_no_global_state_behind():
    kw = dict(n_workers=8, n=1024)
    before = run_gemm(**kw)
    registry.run_experiment("no_scheduler_locality", fast=True)
    assert run_gemm(**kw) == before


def _run(tmp_path, name, tag, *extra):
    d = tmp_path / tag
    d.mkdir(exist_ok=True)
    argv = ["run", name, "--fast", "--journal", str(d / "j.jsonl"),
            "--out", str(d / "r.md"), *extra]
    assert main(argv) == 0
    return (d / "r.md").read_bytes(), (d / "j.jsonl").read_bytes()


@pytest.mark.parametrize("name", ["no_pio_colocation", "fig8", "fig2"])
def test_ported_sweeps_identical_at_any_jobs_and_on_resume(tmp_path,
                                                           capsys, name):
    serial = _run(tmp_path, name, "serial")
    assert _run(tmp_path, name, "pooled", "--jobs", "2") == serial
    from repro.core.campaign import CampaignJournal
    with CampaignJournal(tmp_path / "serial" / "j.jsonl",
                         resume=True) as journal:
        warm = registry.run_experiment(name, fast=True, journal=journal)
    sweep = warm.meta["sweep"]
    assert sweep["replayed"] == sweep["points"] > 0
    assert registry.get(name).render(warm).rstrip().encode() in serial[0]


def test_table1_replays_fig5_sweeps_from_a_shared_journal(tmp_path):
    """table1 is a view of fig5: on one fresh journal after fig5 it
    replays all eight sweeps under fig5's names, records nothing new,
    and renders as a journal-free table1 does."""
    from repro.core.campaign import CampaignJournal
    overrides = dict(core_counts=[0, 2], reps=2)
    with CampaignJournal(tmp_path / "j.jsonl") as journal:
        registry.run_experiment("fig5", journal=journal,
                                overrides=overrides)
        shared = registry.run_experiment("table1", journal=journal,
                                         overrides=overrides)
    records = [json.loads(line) for line in
               (tmp_path / "j.jsonl").read_text().splitlines()]
    points = len(ALL_PLACEMENTS) * 2 * len(overrides["core_counts"])
    assert len(records) == points
    assert len({(r["experiment"], r["key"]) for r in records}) == points
    assert {r["experiment"] for r in records} == {
        f"fig5_{p.key}_{metric}" for p in ALL_PLACEMENTS
        for metric in ("latency", "bandwidth")}
    assert shared.meta["sweep"]["replayed"] \
        == shared.meta["sweep"]["points"] == points
    alone = registry.run_experiment("table1", overrides=overrides)
    render = registry.get("table1").render
    assert render(shared) == render(alone)


@pytest.mark.slow
def test_stack_stall_ablation_recovers_bandwidth():
    result = registry.run_experiment("no_stack_stall", fast=True)
    # Stack stalling is what collapses CG's sending bandwidth: without
    # it more of the 1-worker bandwidth is retained at high workers.
    assert result.observations["ablated_bw_retained"] \
        >= result.observations["baseline_bw_retained"]


@pytest.mark.slow
def test_scheduler_locality_ablation_inflates_stalls():
    result = registry.run_experiment("no_scheduler_locality", fast=True)
    assert result.observations["ablated_stall_fraction"] \
        >= result.observations["baseline_stall_fraction"]
    assert result.observations["slowdown"] > 0
