"""Cross-layer telemetry integration: determinism, zero-perturbation,
interference attribution, fault instants, campaign metrics."""

import dataclasses
import json

from repro.core.campaign import CampaignJournal, SweepGuard
from repro.core.executor import PointSpec
from repro.core.results import ExperimentResult
from repro.faults import FaultPlan, fault_context
from repro.faults.plan import DegradedLink
from repro.hardware.topology import Cluster
from repro.obs import (active_telemetry, telemetry_context,
                       validate_chrome_trace)
from repro.runtime.apps.cg import run_cg

CG_KW = dict(n=40_000, iterations=2)


def _cg(n_workers=6):
    return run_cg("henri", n_workers=n_workers, **CG_KW)


def test_context_installs_and_clears():
    assert active_telemetry() is None
    with telemetry_context() as tele:
        assert active_telemetry() is tele
    assert active_telemetry() is None


def test_bind_cluster_names_lanes():
    with telemetry_context() as tele:
        Cluster("henri", n_nodes=2)
        events = tele.tracer.to_payload()["traceEvents"]
    names = {e["args"]["name"] for e in events
             if e["name"] == "process_name"}
    assert any("n0" in n for n in names)
    assert any("fabric" in n for n in names)
    threads = {e["args"]["name"] for e in events
               if e["name"] == "thread_name"}
    assert "nic" in threads and "wire0->1" in threads


def test_telemetry_does_not_perturb_results():
    """Enabled telemetry must observe, never perturb: same floats."""
    plain = _cg()
    with telemetry_context():
        observed = _cg()
    assert dataclasses.asdict(plain) == dataclasses.asdict(observed)


def test_identical_runs_export_identical_bytes(tmp_path):
    payloads = []
    for tag in ("a", "b"):
        with telemetry_context() as tele:
            tele.set_run("cg")
            _cg()
            trace = tmp_path / f"t{tag}.json"
            metrics = tmp_path / f"m{tag}.json"
            tele.export_trace(trace)
            tele.export_metrics(metrics)
            payloads.append((trace.read_bytes(), metrics.read_bytes()))
    assert payloads[0][0] == payloads[1][0]
    assert payloads[0][1] == payloads[1][1]


def test_trace_is_valid_and_cross_layer(tmp_path):
    with telemetry_context() as tele:
        tele.set_run("cg")
        _cg()
        path = tmp_path / "t.json"
        tele.export_trace(path)
    payload = json.loads(path.read_text())
    assert validate_chrome_trace(payload) == []
    cats = {e.get("cat") for e in payload["traceEvents"] if "cat" in e}
    # Spans from the runtime, the comm queue, and the protocol engine,
    # plus flow spans from the fluid network.
    assert {"task", "p2p", "transfer", "flow"} <= cats
    counters = {e["name"] for e in payload["traceEvents"]
                if e["ph"] == "C"}
    assert "mem_stall_frac" in counters
    assert any(n.startswith("wire") for n in counters)
    assert any(n.startswith("freq.c") for n in counters)


def test_metrics_collected_across_layers():
    with telemetry_context() as tele:
        _cg()
        snap = tele.registry.snapshot()
    assert snap["sim.events"]["value"] > 0
    assert snap["runtime.tasks"]["value"] > 0
    assert snap["fluid.flows_completed"]["value"] > 0
    assert any(k.startswith("net.transfers") for k in snap)


def test_transfer_records_carry_stall_overlap():
    with telemetry_context() as tele:
        _cg(n_workers=20)
        assert tele.transfers, "no transfer samples collected"
        active = [s for s in tele.transfers if s.busy > 0]
        assert active, "no transfer overlapped compute"
        assert any(s.mem_stall > 0 for s in active)
        assert all(0.0 <= s.stall_fraction <= 1.0 + 1e-9 for s in active)


def test_attribution_reproduces_fig10_trend():
    """More workers -> more stall cycles -> lower comm bandwidth."""
    # The tiny CG used elsewhere finishes transfers between tasks; use
    # the paper-size problem so halo exchanges overlap live compute.
    kw = dict(n=120_000, iterations=4)
    with telemetry_context() as tele:
        tele.set_run("few")
        few = run_cg("henri", n_workers=2, **kw)
        tele.set_run("mid")
        run_cg("henri", n_workers=12, **kw)
        tele.set_run("many")
        many = run_cg("henri", n_workers=30, **kw)
        assert many.stall_fraction > few.stall_fraction
        assert many.sending_bandwidth < few.sending_bandwidth
        report = tele.attribution()
    assert report["transfers"] > 0
    assert report["correlation"] is not None
    assert report["correlation"] < 0
    assert len(report["bins"]) == 5
    text = tele.render_attribution()
    assert "matches Fig 10" in text


def test_fault_instants_and_metrics():
    plan = FaultPlan(seed=1, faults=(
        DegradedLink(src=0, dst=1, bw_factor=0.5, start=0.0,
                     duration=0.005),))
    with telemetry_context() as tele:
        with fault_context(plan):
            _cg()
        events = tele.tracer.to_payload()["traceEvents"]
        snap = tele.registry.snapshot()
    faults = [e for e in events if e.get("cat") == "fault"]
    assert len(faults) == 2        # start + end instants
    applied = [k for k in snap if k.startswith("faults.applied")]
    assert applied


def _counting_runner(params):
    """Test point: bumps a counter in the point's telemetry sink."""
    active_telemetry().registry.counter("point.work").inc(params["work"])
    return {"y": [[1.0, 2.0, 1.5, 2.5]]}


def test_sweep_guard_journals_metric_deltas(tmp_path):
    result = ExperimentResult(name="demo", title="demo")
    spec = PointSpec(experiment="demo", key="p0",
                     runner="tests.test_obs_telemetry:_counting_runner",
                     params={"work": 4})
    with telemetry_context() as tele:
        with CampaignJournal(tmp_path / "j.jsonl") as journal:
            guard = SweepGuard(result, journal)
            assert guard.run_specs([spec]) == {"p0": "ok"}
        # The point's delta is folded into the campaign's registry too.
        assert tele.registry.counter("point.work").value == 4
    entry = json.loads((tmp_path / "j.jsonl").read_text().splitlines()[0])
    assert entry["metrics"]["point.work"]["value"] == 4
    assert result.series["y"].median == [2.0]


# -- runtime lanes: task spans per worker core, one span per message ----------

def _traced_runtime(n_workers=4):
    """Two-node task runtime built under an active trace sink."""
    from repro.hardware import HENRI
    from repro.mpi import CommWorld
    from repro.runtime import RuntimeComm, RuntimeSystem

    cluster = Cluster(HENRI, 2)
    world = CommWorld(cluster, comm_placement="far")
    runtimes = {r: RuntimeSystem(world, r, n_workers=n_workers)
                for r in (0, 1)}
    comm = RuntimeComm(world, runtimes)
    for rt in runtimes.values():
        rt.start()
    return cluster, world, runtimes, comm


def _cpu_task(name):
    from repro.kernels.blas import TileCost
    from repro.runtime import Task

    return Task(name=name, cost=TileCost("cpu", 1e7, 0.0), rank=0)


def _spans(tele, cat):
    return [e for e in tele.tracer.to_payload()["traceEvents"]
            if e.get("ph") == "X" and e.get("cat") == cat]


def test_task_spans_land_on_worker_core_lanes():
    with telemetry_context() as tele:
        cluster, _world, runtimes, _comm = _traced_runtime()
        names = [f"t{i}" for i in range(6)]
        for name in names:
            runtimes[0].submit(_cpu_task(name))
        runtimes[0].wait_all()
        cluster.sim.run()
        tasks = _spans(tele, "task")
        pid = tele.machine_pid(cluster.machine(0))
    assert sorted(e["name"] for e in tasks) == names
    assert all(e["pid"] == pid for e in tasks)
    assert all(e["dur"] > 0 for e in tasks)
    worker_cores = {w.core_id for w in runtimes[0].workers}
    assert {e["tid"] for e in tasks} <= worker_cores


def test_one_transfer_span_per_runtime_message():
    with telemetry_context() as tele:
        cluster, world, _runtimes, comm = _traced_runtime()
        for tag, (src, dst, size) in enumerate(((0, 1, 4096),
                                                (1, 0, 1 << 20))):
            comm.isend(src, dst, world.rank(src).buffer(size), tag=tag)
            comm.irecv(dst, src, world.rank(dst).buffer(size), tag=tag)
        cluster.sim.run()
        transfers = _spans(tele, "transfer")
    assert sorted((e["args"]["size"], e["args"]["dst"])
                  for e in transfers) == [(4096, 1), (1 << 20, 0)]
    assert all(e["dur"] > 0 for e in transfers)


def test_discarded_simulation_teardown_is_silent():
    """GC of a dead cluster's suspended workers must not emit telemetry.

    Closing an abandoned worker/kernel generator runs its cleanup at a
    GC-dependent moment; if that cleanup touched the machine it would
    show up as nondeterministic events in whatever trace is active."""
    import gc

    from repro.hardware import HENRI
    from repro.kernels.blas import TileCost
    from repro.mpi import CommWorld
    from repro.runtime import RuntimeComm, RuntimeSystem, Task

    cluster = Cluster(HENRI, 2)
    world = CommWorld(cluster, comm_placement="far")
    runtimes = {r: RuntimeSystem(world, r, n_workers=4) for r in (0, 1)}
    comm = RuntimeComm(world, runtimes)
    for rt in runtimes.values():
        rt.start()
    runtimes[0].submit(Task(name="t", cost=TileCost("cpu", 1e7, 0.0),
                            rank=0))
    runtimes[0].wait_all()
    cluster.sim.run()

    with telemetry_context() as tele:
        del cluster, world, runtimes, comm
        gc.collect()
        assert len(tele.tracer) == 0
        # Only the eagerly-created sim.events counter exists, at zero.
        snap = tele.registry.snapshot()
        assert [k for k, v in snap.items() if v["value"]] == []


def test_metrics_only_telemetry_skips_tracing():
    with telemetry_context(trace=False) as tele:
        assert tele.tracer is None
        _cg()
        assert tele.registry.counter("runtime.tasks").value > 0
        assert tele.transfers


# -- attribution degenerate inputs (regression: must never emit NaN) -------

def _sample(bandwidth=1e9, stall=0.5, busy=1.0, size=1024):
    from repro.obs.attribution import TransferSample
    return TransferSample(t=0.0, run="r", src=0, dst=1, size=size,
                          protocol="eager", duration=size / bandwidth,
                          bandwidth=bandwidth, mem_stall=stall, busy=busy)


def test_attribution_empty_input_is_structured():
    from repro.obs.attribution import attribution_report
    report = attribution_report([])
    assert report["correlation"] is None
    assert report["insufficient_data"] == "no_active_transfers"


def test_attribution_single_sample_is_structured():
    import json

    from repro.obs.attribution import attribution_report, render_attribution
    report = attribution_report([_sample()])
    assert report["correlation"] is None
    assert report["insufficient_data"] == "too_few_active_transfers"
    text = render_attribution(report)
    assert "insufficient data" in text
    assert "nan" not in text.lower()
    assert "nan" not in json.dumps(report).lower()


def test_attribution_zero_variance_is_structured():
    from repro.obs.attribution import attribution_report
    # Identical stall fractions and bandwidths: Pearson undefined.
    report = attribution_report([_sample(), _sample()])
    assert report["correlation"] is None
    assert report["insufficient_data"] == "zero_variance"


def test_attribution_nonfinite_samples_dropped():
    import json
    import math

    from repro.obs.attribution import attribution_report
    bad = _sample()
    bad.bandwidth = math.nan
    report = attribution_report(
        [bad, _sample(1e9, 0.2), _sample(2e9, 0.8), _sample(1.5e9, 0.5)])
    assert report["transfers"] == 3
    assert "nan" not in json.dumps(report).lower()
    assert report["correlation"] is not None


def test_attribution_healthy_report_keyset_unchanged():
    """insufficient_data must only appear on degenerate inputs — healthy
    metric exports keep their exact pre-existing keys (byte-identity)."""
    from repro.obs.attribution import attribution_report
    report = attribution_report(
        [_sample(1e9, 0.2), _sample(2e9, 0.8), _sample(1.5e9, 0.5)])
    assert report["correlation"] is not None
    assert "insufficient_data" not in report
