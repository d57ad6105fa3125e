"""Cross-layer telemetry integration: determinism, zero-perturbation,
interference attribution, fault instants, campaign metrics."""

import dataclasses
import json

from hypothesis import given
from hypothesis import strategies as st

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
    from repro.runtime import RuntimeComm

    cluster = Cluster(HENRI, 2)
    world = CommWorld(cluster, comm_placement="far")
    comm = RuntimeComm(world, n_workers=n_workers)
    for rt in comm.runtimes.values():
        rt.start()
    return cluster, world, comm.runtimes, comm


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
    from repro.runtime import RuntimeComm, Task

    cluster = Cluster(HENRI, 2)
    world = CommWorld(cluster, comm_placement="far")
    comm = RuntimeComm(world, n_workers=4)
    runtimes = comm.runtimes
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


def _sample_row(size, duration, bandwidth, busy, stall_share, retries,
                run):
    """A transfer row with ``mem_stall = stall_share * busy``."""
    from repro.obs.attribution import TransferSample
    return TransferSample(t=duration, run=run, src=0, dst=1, size=size,
                          protocol="eager", duration=duration,
                          bandwidth=bandwidth,
                          mem_stall=stall_share * busy, busy=busy,
                          retries=retries)


def _log(*samples):
    from repro.obs.attribution import TransferLog
    log = TransferLog()
    for s in samples:
        log.append(*dataclasses.astuple(s))
    return log


def test_attribution_empty_input_is_structured():
    from repro.obs.attribution import attribution_report
    report = attribution_report(_log())
    assert report["correlation"] is None
    assert report["insufficient_data"] == "no_active_transfers"


def test_attribution_single_sample_is_structured():
    import json

    from repro.obs.attribution import attribution_report, render_attribution
    report = attribution_report(_log(_sample()))
    assert report["correlation"] is None
    assert report["insufficient_data"] == "too_few_active_transfers"
    text = render_attribution(report)
    assert "insufficient data" in text
    assert "nan" not in text.lower()
    assert "nan" not in json.dumps(report).lower()


def test_attribution_zero_variance_is_structured():
    from repro.obs.attribution import attribution_report
    # Identical stall fractions and bandwidths: Pearson undefined.
    report = attribution_report(_log(_sample(), _sample()))
    assert report["correlation"] is None
    assert report["insufficient_data"] == "zero_variance"


def test_attribution_nonfinite_samples_dropped():
    import json
    import math

    from repro.obs.attribution import attribution_report
    bad = _sample()
    bad.bandwidth = math.nan
    report = attribution_report(
        _log(bad, _sample(1e9, 0.2), _sample(2e9, 0.8), _sample(1.5e9, 0.5)))
    assert report["transfers"] == 3
    assert "nan" not in json.dumps(report).lower()
    assert report["correlation"] is not None


def test_attribution_healthy_report_keyset_unchanged():
    """insufficient_data must only appear on degenerate inputs — healthy
    metric exports keep their exact pre-existing keys (byte-identity)."""
    from repro.obs.attribution import attribution_report
    report = attribution_report(
        _log(_sample(1e9, 0.2), _sample(2e9, 0.8), _sample(1.5e9, 0.5)))
    assert report["correlation"] is not None
    assert "insufficient_data" not in report


# -- attribution over columns vs. the row-based computation ----------------

def _row_attribution(samples, n_bins=5):
    """Oracle: the attribution computed row by row over TransferSamples,
    as it was before the log became columnar (with the last bin taking
    every stall fraction from its low edge up)."""
    import math
    samples = [s for s in samples
               if s.duration > 0 and s.size > 0
               and math.isfinite(s.duration)
               and math.isfinite(s.bandwidth)
               and math.isfinite(s.mem_stall)
               and math.isfinite(s.busy)]
    if not samples:
        return {"transfers": 0, "correlation": None, "bins": [],
                "quiet_transfers": 0,
                "insufficient_data": "no_active_transfers"}
    best_by_size = {}
    for s in samples:
        best = best_by_size.get(s.size, 0.0)
        if s.bandwidth > best:
            best_by_size[s.size] = s.bandwidth
    norm = [(s, s.bandwidth / best_by_size[s.size]) for s in samples]
    active = [(s, nb) for s, nb in norm if s.busy > 0]
    quiet = len(norm) - len(active)
    from repro.obs.attribution import _pearson
    corr = _pearson([s.stall_fraction for s, _ in active],
                    [nb for _, nb in active]) if active else None
    reason = None
    if corr is None:
        if not active:
            reason = "no_active_transfers"
        elif len(active) < 2:
            reason = "too_few_active_transfers"
        else:
            reason = "zero_variance"
    max_stall = max((s.stall_fraction for s, _ in active), default=0.0)
    hi = max(max_stall, 1e-9)
    bins = []
    for b in range(n_bins):
        lo_edge = hi * b / n_bins
        hi_edge = hi * (b + 1) / n_bins
        members = [
            (s, nb) for s, nb in active
            if lo_edge <= s.stall_fraction
            and (b == n_bins - 1 or s.stall_fraction < hi_edge)]
        if members:
            mean_bw = sum(nb for _, nb in members) / len(members)
            mean_abs = sum(s.bandwidth for s, _ in members) / len(members)
        else:
            mean_bw = mean_abs = None
        bins.append({
            "stall_lo": round(lo_edge, 6), "stall_hi": round(hi_edge, 6),
            "transfers": len(members),
            "mean_norm_bandwidth": (round(mean_bw, 6)
                                    if mean_bw is not None else None),
            "mean_bandwidth_Bps": (round(mean_abs, 3)
                                   if mean_abs is not None else None),
        })
    report = {"transfers": len(samples), "quiet_transfers": quiet,
              "retransmitted": sum(s.retries for s in samples),
              "correlation": round(corr, 6) if corr is not None else None,
              "bins": bins}
    if reason is not None:
        report["insufficient_data"] = reason
    return report


def _outcome(fn, *args):
    """Bit-exact comparable result: the report's JSON (which tells -0.0
    from 0.0), or the exception type it raised."""
    try:
        return json.dumps(fn(*args), sort_keys=True)
    except Exception as err:  # noqa: BLE001 - compared, not swallowed
        return type(err)


_odd = st.sampled_from([0.0, -0.0, float("nan"), float("inf")])


def _attr_samples(bandwidth):
    return st.builds(
        _sample_row,
        size=st.sampled_from([0, 8, 1024, 1 << 20]),
        duration=st.floats(1e-9, 1e-2) | _odd,
        bandwidth=bandwidth,
        busy=st.floats(1e-9, 1e-2) | _odd,
        # Ratios of integers reach the "unround" shares that simple
        # floats miss (``hi * 5 / 5 < hi`` for about 6% of them).
        stall_share=st.floats(0.0, 1.0)
        | st.integers(0, 999_999_937).map(lambda k: k / 999_999_937),
        retries=st.integers(0, 3),
        run=st.sampled_from(["victim", "noise"]))


# Zero bandwidths included: a size group with no positive bandwidth
# must fail the same way in both computations.
_any_samples = _attr_samples(st.floats(1e3, 1e11) | _odd)
# What the recorder stores: a transfer that survives the finiteness
# filter has a positive bandwidth (size / duration).
_recorded_samples = _attr_samples(
    st.floats(1e3, 1e11) | st.sampled_from([float("nan"), float("inf")]))


@given(st.lists(_any_samples, max_size=60), st.integers(1, 7))
def test_attribution_over_log_matches_row_oracle(samples, n_bins):
    from repro.obs.attribution import attribution_report
    assert _outcome(attribution_report, _log(*samples), n_bins) \
        == _outcome(_row_attribution, samples, n_bins)


@given(st.lists(_recorded_samples, max_size=60), st.integers(1, 7))
def test_attribution_bins_every_active_transfer(samples, n_bins):
    from repro.obs.attribution import attribution_report
    report = attribution_report(_log(*samples), n_bins)
    assert sum(b["transfers"] for b in report["bins"]) \
        == report["transfers"] - report["quiet_transfers"]


def test_attribution_top_bin_keeps_the_highest_stall_transfer():
    """``hi * 5 / 5`` rounds below this ``hi``: the transfer whose stall
    fraction is the maximum used to fall into no bin at all."""
    from repro.obs.attribution import attribution_report
    hi = 0.21659939713061338
    assert hi * 5 / 5 < hi
    report = attribution_report(_log(*(
        _sample_row(1024, 1e-6, bw, 1.0, share, 0, "r")
        for bw, share in ((1e9, 0.05), (2e9, 0.1), (3e9, hi)))))
    assert [b["transfers"] for b in report["bins"]] == [0, 1, 1, 0, 1]
    assert report["bins"][-1]["stall_hi"] == round(hi * 5 / 5, 6)


def test_attribution_by_run_filters_into_a_sub_log():
    from repro.obs.telemetry import Telemetry
    tele = Telemetry(trace=False, metrics=True)
    rows = [_sample_row(1024, 1e-6, 1e9 + i, 1e-6, (i % 5) / 5, i % 2,
                        ("victim", "noise")[i % 3 == 0])
            for i in range(30)]
    tele.transfers = _log(*rows)
    for run in ("victim", "noise"):
        mine = [s for s in rows if s.run == run]
        assert json.dumps(tele.attribution(run=run)) \
            == json.dumps(_row_attribution(mine))
    assert list(tele.transfers.for_run("noise")) \
        == [s for s in rows if s.run == "noise"]


# -- the log under --jobs: pickled payloads, ordered concatenation -----------

def _point_telemetry(rows):
    from repro.obs.telemetry import Telemetry
    tele = Telemetry(trace=False, metrics=True)
    tele.transfers = _log(*rows)
    return tele


def test_point_payload_survives_pickle():
    import pickle
    rows = [_sample_row(64 << i, 1e-6 * (i + 1), 1e9 / (i + 1), 1e-6,
                        0.25 * i, i, "app é")
            for i in range(4)]
    payload = pickle.loads(pickle.dumps(
        _point_telemetry(rows).point_payload()))
    log = payload["transfers"]
    assert list(log) == rows
    assert (log.t.typecode, log.size.typecode) == ("d", "q")


def test_absorb_point_concatenates_in_submission_order():
    import pickle

    from repro.obs.telemetry import Telemetry
    first = [_sample_row(1024, 1e-6, 1e9, 1e-6, 0.5, 0, "a")] * 2
    second = [_sample_row(8, 2e-6, 4e6, 0.0, 0.0, 1, "b"),
              _sample_row(8, 1e-6, 8e6, 1e-6, 0.1, 0, "c")]
    parent = Telemetry(trace=False, metrics=True)
    for rows in (first, [], second):
        payload = pickle.loads(pickle.dumps(
            _point_telemetry(rows).point_payload()))
        parent.absorb_point(payload)
    assert list(parent.transfers) == first + second
