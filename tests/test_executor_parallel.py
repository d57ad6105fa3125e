"""Parallel sweep execution: determinism, cache, and failure paths.

The contract under test (docs/PARALLEL.md): seeded runs produce
byte-identical reports, journals, traces and metric exports at any
``--jobs`` level; journal entries double as a content-addressed point
cache; worker crashes surface as errors while point failures degrade
gracefully.
"""

import hashlib
import json
import os

import pytest

from repro.cli import main
from repro.core.campaign import CampaignJournal, SweepGuard
from repro.core.executor import (ExecutionPolicy, PointSpec, SweepExecutor,
                                 build_env, executor_context,
                                 point_fingerprint)
from repro.core.results import ExperimentResult
from repro.faults.context import derive_point_seed
from repro.sim.invariants import InvariantViolation


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_fig1a(tmp_path, tag: str, jobs: int):
    d = tmp_path / tag
    d.mkdir()
    argv = ["run", "fig1a", "--fast",
            "--trace", str(d / "t.json"),
            "--metrics", str(d / "m.json"),
            "--journal", str(d / "j.jsonl"),
            "--out", str(d / "r.md")]
    if jobs != 1:
        argv += ["--jobs", str(jobs)]
    assert main(argv) == 0
    return {name: _sha(d / name)
            for name in ("t.json", "m.json", "j.jsonl", "r.md")}


# -- bit-identity -----------------------------------------------------------

def test_fig1a_artifacts_identical_at_any_jobs(tmp_path, capsys):
    serial = _run_fig1a(tmp_path, "serial", jobs=1)
    parallel = _run_fig1a(tmp_path, "parallel", jobs=2)
    assert serial == parallel


def test_multi_point_trace_lanes_are_distinct_at_any_jobs(tmp_path,
                                                         capsys):
    """Every fig1a point builds its own cluster; absorbing a point
    renumbers its ``c<k>.`` lanes, so no two lanes share a name and the
    pooled trace still equals the serial one."""
    traces = []
    for jobs in ("1", "2"):
        path = tmp_path / f"t{jobs}.json"
        assert main(["run", "fig1a", "--fast", "--trace",
                     str(path), "--jobs", jobs]) == 0
        traces.append(path.read_bytes())
    assert traces[0] == traces[1]
    names = [e["args"]["name"]
             for e in json.loads(traces[0])["traceEvents"]
             if e["name"] == "process_name"]
    assert len(names) == len(set(names)) == 36


def test_fig10_api_identical_under_pool():
    from repro.core.experiments import fig10
    from repro.core.report import render_experiment

    serial = fig10(worker_counts=(1, 2))
    with executor_context(2):
        pooled = fig10(worker_counts=(1, 2))
    assert render_experiment(serial) == render_experiment(pooled)
    for key, s in serial.series.items():
        p = pooled.series[key]
        assert (s.x, s.median, s.p10, s.p90) == \
            (p.x, p.median, p.p10, p.p90)


def test_fault_campaign_identical_at_any_jobs(tmp_path, capsys):
    journals = {}
    for jobs in (1, 2):
        j = tmp_path / f"j{jobs}.jsonl"
        argv = ["run", "fig1a", "--fast",
                "--fault", "fail_stop:node=1,at=0.0001",
                "--fault-seed", "7", "--journal", str(j)]
        if jobs != 1:
            argv += ["--jobs", str(jobs)]
        assert main(argv) == 0
        journals[jobs] = j.read_bytes()
    assert journals[1] == journals[2]
    assert b'"status": "failed"' in journals[1]


# -- per-point fault seeds --------------------------------------------------

def test_derive_point_seed_is_pure_and_distinct():
    a = derive_point_seed(7, "fig1", "corner/size=4")
    assert a == derive_point_seed(7, "fig1", "corner/size=4")
    assert a != derive_point_seed(8, "fig1", "corner/size=4")
    assert a != derive_point_seed(7, "fig1", "corner/size=64")
    assert a != derive_point_seed(7, "fig4a", "corner/size=4")
    assert 0 <= a < 2 ** 64


# -- content-addressed cache ------------------------------------------------

def _spec_for(params=None):
    return PointSpec(experiment="figX", key="k", runner="m:f",
                     params=params or {"size": 4})


def test_fingerprint_tracks_params_and_code(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "v1")
    base = point_fingerprint(_spec_for())
    assert base == point_fingerprint(_spec_for())
    assert base != point_fingerprint(_spec_for({"size": 8}))
    monkeypatch.setenv("REPRO_CODE_VERSION", "v2")
    assert base != point_fingerprint(_spec_for())


def test_fingerprint_hashes_callables_by_name(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "v1")
    from repro.kernels.stream import triad_kernel
    a = point_fingerprint(_spec_for({"kernel_factory": triad_kernel}))
    assert a == point_fingerprint(_spec_for({"kernel_factory": triad_kernel}))


def test_warm_journal_replays_without_resimulating(tmp_path, monkeypatch):
    from repro.core.experiments import fig1a

    monkeypatch.setenv("REPRO_CODE_VERSION", "v1")
    path = tmp_path / "j.jsonl"
    kw = dict(sizes=[4, 64], reps=3)
    with CampaignJournal(path) as journal:
        cold = fig1a(journal=journal, **kw)
    assert cold.meta["sweep"]["replayed"] == 0
    with CampaignJournal(path, resume=True) as journal:
        warm = fig1a(journal=journal, **kw)
    assert warm.meta["sweep"]["replayed"] == warm.meta["sweep"]["points"]
    for key, s in cold.series.items():
        assert warm.series[key].median == s.median

    # A code-version bump invalidates every cached point.
    monkeypatch.setenv("REPRO_CODE_VERSION", "v2")
    with CampaignJournal(path, resume=True) as journal:
        busted = fig1a(journal=journal, **kw)
    assert busted.meta["sweep"]["replayed"] == 0

    # Changed parameters miss the cache even at the same code version.
    monkeypatch.setenv("REPRO_CODE_VERSION", "v1")
    with CampaignJournal(path, resume=True) as journal:
        changed = fig1a(journal=journal, sizes=[4, 64], reps=4)
    assert changed.meta["sweep"]["replayed"] == 0


def test_journal_entries_without_fp_rerun(tmp_path):
    """An unfingerprinted entry cannot prove which parameters and code
    produced it, so a resume re-runs it instead of replaying it."""
    from repro.core.experiments import fig1a

    path = tmp_path / "j.jsonl"
    kw = dict(sizes=[4], reps=3)
    with CampaignJournal(path) as journal:
        fig1a(journal=journal, **kw)
    stripped = []
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        entry.pop("fp", None)
        stripped.append(json.dumps(entry))
    path.write_text("\n".join(stripped) + "\n")
    with CampaignJournal(path, resume=True) as journal:
        resumed = fig1a(journal=journal, **kw)
    assert resumed.meta["sweep"]["replayed"] == 0
    fresh = fig1a(**kw)
    assert {k: (s.x, s.median, s.p10, s.p90)
            for k, s in resumed.series.items()} == \
        {k: (s.x, s.median, s.p10, s.p90) for k, s in fresh.series.items()}


# -- journal crash-safety ---------------------------------------------------

def test_journal_rejects_second_concurrent_writer(tmp_path):
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path) as journal:
        journal.record("figX", "size=4", "ok")
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="locked by another"):
            CampaignJournal(path)
        # The refused writer truncated nothing.
        assert path.read_bytes() == before
    # Lock released on close: reopening now works.
    with CampaignJournal(path, resume=True) as journal:
        assert journal.completed("figX") == ["size=4"]


# -- failure propagation ----------------------------------------------------

def _raise_runner(params):
    raise ValueError("boom on " + str(params["size"]))


def _crash_runner(params):
    os._exit(3)


def _row_runner(params):
    return {"s": [[float(params["size"]), 1.0, 1.0, 1.0]]}


def _guard(name="figX"):
    return SweepGuard(ExperimentResult(name=name, title="t"))


def test_point_exception_degrades_to_failure_at_any_jobs():
    for jobs in (1, 2):
        guard = _guard()
        with executor_context(jobs):
            statuses = guard.run_specs([
                PointSpec(experiment="figX", key="size=4",
                          runner="tests.test_executor_parallel:_row_runner",
                          params={"size": 4}),
                PointSpec(experiment="figX", key="size=8",
                          runner="tests.test_executor_parallel:_raise_runner",
                          params={"size": 8}),
            ])
        assert statuses == {"size=4": "ok", "size=8": "failed"}
        failure = guard.result.failures["size=8"]
        assert failure["error"] == "ValueError"
        assert "boom" in failure["message"]
        assert guard.result.series["s"].x == [4.0]


def test_worker_crash_raises_without_keep_going():
    """keep_going=False restores the pre-self-healing abort-on-crash."""
    guard = _guard()
    spec = PointSpec(experiment="figX", key="k",
                     runner="tests.test_executor_parallel:_crash_runner",
                     params={})
    policy = ExecutionPolicy(point_retries=0, keep_going=False)
    with executor_context(2, policy):
        with pytest.raises(RuntimeError, match="worker process died"):
            guard.run_specs([spec])


def _invariant_runner(params):
    raise InvariantViolation(f"component {params['size']} broke")


def _invariant_sweep(spec="henri", journal=None):
    result = ExperimentResult(name="inv_sweep", title="t")
    SweepGuard(result, journal).run_specs([
        PointSpec(experiment="inv_sweep", key="size=4",
                  runner="tests.test_executor_parallel:_row_runner",
                  params={"size": 4}),
        PointSpec(experiment="inv_sweep", key="size=8",
                  runner="tests.test_executor_parallel:_invariant_runner",
                  params={"size": 8}),
    ])
    return result


def _invariant_plain(spec="henri", journal=None):
    raise InvariantViolation("component 0 broke")


def _register(monkeypatch, name, runner):
    from repro.core import registry

    registry.load()
    monkeypatch.setitem(registry._REGISTRY, name,  # noqa: SLF001
                        registry.ExperimentDef(
                            name=name, runner=runner, title="t"))
    monkeypatch.setitem(registry._ORDER, name, (99, 0))  # noqa: SLF001


def test_invariant_violation_fails_the_run(tmp_path, capsys, monkeypatch):
    _register(monkeypatch, "inv_sweep", _invariant_sweep)
    md = tmp_path / "r.md"
    journal = tmp_path / "j.jsonl"
    assert main(["run", "inv_sweep", "--out", str(md),
                 "--journal", str(journal)]) == 1
    err = capsys.readouterr().err
    assert "InvariantViolation in inv_sweep at point size=8: " \
        "component 8 broke" in err
    report = md.read_text()
    assert "Invariant violations" in report
    assert "fault injection" not in report
    statuses = [json.loads(line)["status"]
                for line in journal.read_text().splitlines()]
    assert statuses == ["ok", "failed"]


def test_invariant_violation_outside_a_sweep_is_named(capsys, monkeypatch):
    _register(monkeypatch, "inv_plain", _invariant_plain)
    assert main(["run", "inv_plain"]) == 1
    assert "InvariantViolation in inv_plain: component 0 broke" in \
        capsys.readouterr().err


# -- telemetry merge units --------------------------------------------------

def test_merge_delta_accumulates():
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    reg.counter("net.transfers").inc(2)
    delta = {"net.transfers": {"type": "counter", "value": 3.0},
             "load{node=0}": {"type": "gauge", "value": 0.5}}
    reg.merge_delta(delta)
    assert reg.counter("net.transfers").value == 5.0
    assert reg.gauge("load", node=0).value == 0.5

    src = MetricsRegistry()
    src.histogram("lat").observe(1.0)
    reg.merge_delta(src.delta({}))
    reg.merge_delta(src.delta({}))
    assert reg.histogram("lat").count == 2
    assert reg.histogram("lat").sum == 2.0


def test_absorb_point_offsets_trace_pids():
    from repro.obs.telemetry import Telemetry

    parent = Telemetry(trace=True, metrics=True)
    parent._n_clusters = 2  # noqa: SLF001 - as if two clusters ran
    payload = {"n_clusters": 1, "transfers": [],
               "events": [{"ph": "X", "pid": 17, "tid": 0,
                           "ts": 0, "name": "e"}]}
    parent.absorb_point(payload, {"sim.events":
                                  {"type": "counter", "value": 4.0}})
    event = parent.tracer._events[-1]  # noqa: SLF001
    assert event["pid"] == 2017       # shifted past the parent's blocks
    assert parent._n_clusters == 3    # noqa: SLF001
    assert parent.registry.counter("sim.events").value == 4.0


def test_build_env_snapshots_ambient_contexts():
    from repro.faults import FaultPlan, fault_context
    from repro.obs import telemetry_context

    assert build_env() == {}
    plan = FaultPlan(seed=5, faults=())
    with fault_context(plan):
        with telemetry_context(trace=False, metrics=True) as tele:
            tele.set_run("fig9")
            env = build_env()
    assert env["fault_plan"]["seed"] == 5
    assert env["telemetry"] == {"trace": False, "metrics": True,
                                "run": "fig9"}


# -- executor shape ---------------------------------------------------------

def test_jobs_zero_means_cpu_count():
    ex = SweepExecutor(jobs=0)
    assert ex.jobs == (os.cpu_count() or 1)
    ex.close()
    with pytest.raises(ValueError, match="jobs must be >= 0"):
        SweepExecutor(jobs=-1)


def test_pool_is_sized_to_the_sweep(monkeypatch):
    """A fork pool starts all its workers up front, so a huge --jobs
    must not fork more workers than the sweep has points.  The pool
    class is faked: no test starts the processes."""
    import concurrent.futures
    from concurrent.futures import Future

    widths = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None, initializer=None):
            self._max_workers = max_workers
            widths.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    # The executor imports the pool class when it builds a pool.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)

    def sweep(n):
        return [(PointSpec(experiment="figX", key=f"size={i}",
                           runner="tests.test_executor_parallel:_row_runner",
                           params={"size": i}), {}) for i in range(n)]

    with SweepExecutor(jobs=10**6) as ex:
        for n in (3, 8, 2):
            entries = list(ex.map_points(sweep(n)))
            assert [e["key"] for e in entries] == \
                [f"size={i}" for i in range(n)]
    # The wider second sweep rebuilds the pool; the third reuses it.
    assert widths == [3, 8]


def test_map_preserves_submission_order():
    specs = [PointSpec(experiment="figX", key=f"size={n}",
                       runner="tests.test_executor_parallel:_row_runner",
                       params={"size": n}) for n in range(8)]
    with SweepExecutor(jobs=2) as ex:
        entries = list(ex.map_points([(s, {}) for s in specs]))
    assert [e["key"] for e in entries] == [s.key for s in specs]
    assert [e["series"]["s"][0][0] for e in entries] == \
        [float(n) for n in range(8)]
