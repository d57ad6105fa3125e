"""Self-checks of the benchmark harness and its traced run.

    python3 -m pytest perfbench/test_perfbench.py

Small sizes only: one fig10 point and one two-node ping-pong.
"""

from __future__ import annotations

import json
import sys
import time

from workloads import (DEFAULT_SEED, ROOT, SRC, WORKLOADS, Unit, Workload,
                       load_goldens)

sys.path.insert(0, str(SRC))

from run import END_TO_END_UNITS, Bench, per_layer_unit  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _originals():
    """(owner, attribute) -> original function, for every tracer target."""
    tracer = Tracer()
    with tracer.installed():
        return {(owner, attr): fn for owner, attr, fn in tracer.patched}


def _untraced(originals) -> bool:
    return sys.getprofile() is None and all(
        vars(owner)[attr] is fn for (owner, attr), fn in originals.items())


def test_benchmark_json_matches_harness():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == END_TO_END_UNITS
    traced = Tracer().metrics(lap_s=1.0, host_s=1.0)
    assert {m["name"] for m in spec["per_layer"]} == set(traced)
    for metric in spec["per_layer"]:
        assert metric["unit"] == per_layer_unit(metric["name"])
    goldens = load_goldens()
    for workload in WORKLOADS.values():
        assert set(goldens[workload.name]) == {u.name
                                               for u in workload.units}


def test_timed_path_installs_no_wrapper(tmp_path):
    originals = _originals()
    seen = []

    def check():
        seen.append(_untraced(originals))
        return {"ok": True}

    workload = Workload("selfcheck", (), (Unit("check", call=check),))
    bench = Bench(workload, DEFAULT_SEED, tmp_path, goldens={})
    metrics = bench.end_to_end(0.01)
    assert bench.failed == 0 and len(seen) >= 2 and all(seen)
    assert metrics["setup_s"] > 0


def test_engine_events_match_engine_stats():
    from repro.hardware.topology import Cluster
    from repro.mpi.comm import CommWorld
    from repro.mpi.pingpong import PingPong

    def pingpong():
        cluster = Cluster("henri", n_nodes=2)
        PingPong(CommWorld(cluster)).run(4096, reps=5)
        cluster.sim.schedule(0.0, lambda: None)
        cluster.sim.step()
        return cluster

    originals = _originals()
    tracer = Tracer()
    with tracer.installed():
        cluster = tracer.run(pingpong)
    metrics = tracer.metrics(lap_s=1.0, host_s=1.0)
    stats = cluster.sim.engine_stats()
    assert stats["engine.events_dispatched"] > 0
    for key, value in stats.items():
        assert metrics[key] == value, key
    assert metrics["netmodel.half_transfers"] > 0
    assert metrics["hardware.clusters_built"] == 1
    assert _untraced(originals)


def test_unattributed_time_lowers_coverage():
    """Time outside the simulator is charged to no layer."""
    def spin():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass

    tracer = Tracer()
    t0 = time.perf_counter()
    tracer.run(spin)
    metrics = tracer.metrics(time.perf_counter() - t0, host_s=1.0)
    assert metrics["traced.coverage"] < 0.1


def test_traced_lap_is_covered_and_unperturbed(tmp_path):
    """The traced lap reproduces the golden digest, the layers' self
    times cover the lap, and every wrapper is removed afterwards."""
    originals = _originals()
    fig10 = WORKLOADS["fig10_runtime"]
    workload = Workload("fig10_runtime", fig10.setup_modules,
                        fig10.units[:1])
    bench = Bench(workload, DEFAULT_SEED, tmp_path)
    metrics = bench.traced(0.01)
    assert bench.failed == 0, bench.errors
    assert bench.attempted == 3           # two timed rounds + the traced lap
    assert 0.95 < metrics["traced.coverage"] < 1.0
    assert all(metrics[f"{layer}.self_s"] >= 0.0 for layer in LAYERS)
    assert metrics["runtime.self_s"] > 0 and metrics["fluid.self_s"] > 0
    assert metrics["runtime.tasks_done"] > 0
    assert metrics["fluid.completions"] > 0
    assert metrics["traced.overhead"] > 0
    assert _untraced(originals)
