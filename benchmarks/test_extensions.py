"""Extension benches: overlap, multi-pair, GPU transfers.

Beyond the paper's figures: the related-work methodologies ([7] overlap,
[9] multi-pair) applied to the same simulated substrate, plus the §8
future-work GPU interference.
"""

import pytest

from conftest import note, run_once

from repro.core.multipair import multipair_experiment
from repro.core.overlap import overlap_experiment


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

