"""Extension benches: overlap, multi-pair, §8 autotuning, collectives.

Beyond the paper's figures: the related-work methodologies ([7] overlap,
[9] multi-pair) applied to the same simulated substrate, plus the §8
future-work autotuner.
"""

import pytest

from conftest import note, run_once

from repro.core.multipair import multipair_experiment
from repro.core.overlap import overlap_experiment
from repro.runtime.apps import run_cg


def test_overlap_efficiency(benchmark):
    res = run_once(benchmark, overlap_experiment,
                   sizes=[65536, 1 << 20, 8 << 20, 64 << 20],
                   n_compute_cores=8)
    note(benchmark,
         min_overlap_ratio=res.observations["min_overlap_ratio"],
         max_slowdown=res.observations["max_slowdown"])
    # A dedicated comm thread overlaps well for small messages; large
    # messages fight the kernels for the memory bus (§4's coupling).
    ratio = res["overlap_ratio"]
    assert ratio.at(65536) > 0.7
    assert res.observations["max_slowdown"] > 1.05


def test_multipair_wire_sharing(benchmark):
    res = run_once(benchmark, multipair_experiment,
                   pair_counts=[1, 2, 4, 8],
                   sizes=[4, 16 << 20], reps=6)
    note(benchmark,
         aggregate_bw_retained=res.observations["aggregate_bw_retained"])
    big = 16 << 20
    per_pair = res[f"per_pair_bw_{big}"]
    # Per-pair large-message bandwidth decays ~1/k ...
    assert per_pair.at(8) < 0.25 * per_pair.at(1)
    # ... while the aggregate stays near the wire limit.
    assert res.observations["aggregate_bw_retained"] > 0.75
    # Small-message latency only mildly affected.
    lat = res["latency_4"]
    assert lat.at(8) < 1.6 * lat.at(1)


def test_autotune_cg(benchmark):
    def both():
        fixed = run_cg(n_workers=34, iterations=4)
        tuned = run_cg(n_workers=34, iterations=4, autotune=True)
        return fixed, tuned

    fixed, tuned = run_once(benchmark, both)
    note(benchmark,
         fixed_bw_GBs=fixed.sending_bandwidth / 1e9,
         tuned_bw_GBs=tuned.sending_bandwidth / 1e9,
         fixed_stalls=fixed.stall_fraction,
         tuned_stalls=tuned.stall_fraction,
         time_ratio=tuned.duration / fixed.duration)
    # §8's goal: shed contention at no compute cost.
    assert tuned.duration < fixed.duration * 1.1
    assert tuned.sending_bandwidth > fixed.sending_bandwidth
    assert tuned.stall_fraction < fixed.stall_fraction


def test_gpu_interference(benchmark):
    """§8 future work: GPU data movements vs network and STREAM."""
    from repro.core.gpu_experiments import gpu_vs_network, gpu_vs_stream

    def both():
        return (gpu_vs_network(reps=8),
                gpu_vs_stream(core_counts=[0, 2, 4, 8, 12, 17]))

    net, stream = run_once(benchmark, both)
    note(benchmark,
         network_bw_ratio=net.observations["bandwidth_ratio"],
         memcpy_min_ratio=stream.observations["memcpy_bw_min_ratio"])
    # GPU traffic costs the (already contended) network bandwidth...
    assert net.observations["bandwidth_ratio"] < 0.97
    # ...and STREAM starves the GPU link like it starves the NIC.
    assert stream.observations["memcpy_bw_min_ratio"] < 0.4


def test_scheduler_comparison(benchmark):
    """Eager central list vs locality work stealing on the §6 GEMM."""
    from repro.runtime.apps import run_gemm

    def both():
        eager = run_gemm(n_workers=34, n=2048, tile=128)
        stealing = run_gemm(n_workers=34, n=2048, tile=128,
                            scheduler="lws")
        return eager, stealing

    eager, stealing = run_once(benchmark, both)
    note(benchmark,
         eager_ms=eager.duration * 1e3,
         stealing_ms=stealing.duration * 1e3,
         eager_stalls=eager.stall_fraction,
         stealing_stalls=stealing.stall_fraction)
    # Both schedulers complete the same work in comparable time.
    assert stealing.duration < 1.5 * eager.duration
    assert stealing.sending_bandwidth > 0


def test_collectives_under_contention(benchmark):
    from repro.hardware import Cluster
    from repro.kernels import run_kernel, triad_kernel
    from repro.mpi import CommWorld
    from repro.mpi.collectives import CollectiveContext

    def measure():
        size = 8 << 20
        quiet = CollectiveContext(
            CommWorld(Cluster("henri", 2), comm_placement="near")
        ).run("allreduce", size=size)
        world = CommWorld(Cluster("henri", 2), comm_placement="near")
        ctx = CollectiveContext(world)
        runs = []
        for machine in world.cluster.machines:
            for core in range(12):
                runs.append(run_kernel(machine, core, triad_kernel(),
                                       data_numa=0, sweeps=None))
        loud = ctx.run("allreduce", size=size)
        for r in runs:
            r.request_stop()
        world.sim.run()
        return quiet, loud

    quiet, loud = run_once(benchmark, measure)
    note(benchmark, quiet_ms=quiet.duration * 1e3,
         contended_ms=loud.duration * 1e3)
    assert loud.duration > 1.3 * quiet.duration
